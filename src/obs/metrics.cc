#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/util/strings.h"

namespace rcb {
namespace obs {

std::string_view ProvenanceName(Provenance provenance) {
  return provenance == Provenance::kSim ? "sim" : "wall";
}

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(int64_t value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++counts_[BucketOf(value)];
}

size_t Histogram::BucketOf(int64_t value) const {
  // First bucket whose inclusive upper bound admits the value.
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Nearest-rank target, then linear interpolation inside the rank's bucket.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t cumulative = 0;
  for (size_t bucket = 0; bucket < counts_.size(); ++bucket) {
    if (counts_[bucket] == 0) {
      continue;
    }
    if (cumulative + counts_[bucket] >= rank) {
      double lower = bucket == 0 ? 0.0
                                 : static_cast<double>(bounds_[bucket - 1]);
      double upper = bucket < bounds_.size()
                         ? static_cast<double>(bounds_[bucket])
                         : static_cast<double>(max_);
      double fraction = static_cast<double>(rank - cumulative) /
                        static_cast<double>(counts_[bucket]);
      double estimate = lower + (upper - lower) * fraction;
      return std::clamp(estimate, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    cumulative += counts_[bucket];
  }
  return static_cast<double>(max_);
}

std::vector<int64_t> Histogram::ExponentialBounds(int64_t start, double factor,
                                                  size_t n) {
  std::vector<int64_t> bounds;
  bounds.reserve(n);
  double bound = static_cast<double>(start);
  int64_t previous = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t rounded = static_cast<int64_t>(std::llround(bound));
    if (rounded <= previous) {
      rounded = previous + 1;  // keep bounds strictly ascending
    }
    bounds.push_back(rounded);
    previous = rounded;
    bound *= factor;
  }
  return bounds;
}

const std::vector<int64_t>& LatencyBoundsUs() {
  // 1µs … ~100s, ~4 buckets per decade.
  static const std::vector<int64_t> kBounds =
      Histogram::ExponentialBounds(1, 1.7782794, 33);
  return kBounds;
}

const std::vector<int64_t>& SizeBoundsBytes() {
  // 64B … 64MB, powers of two.
  static const std::vector<int64_t> kBounds =
      Histogram::ExponentialBounds(64, 2.0, 21);
  return kBounds;
}

const std::vector<int64_t>& CountBounds() {
  // 1 … 16384, powers of two.
  static const std::vector<int64_t> kBounds =
      Histogram::ExponentialBounds(1, 2.0, 15);
  return kBounds;
}

bool MetricsRegistry::IsValidMetricName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head_ok(name[0])) {
    return false;
  }
  for (char c : name.substr(1)) {
    if (!head_ok(c) && !(c >= '0' && c <= '9')) {
      return false;
    }
  }
  return true;
}

MetricsRegistry::Family* MetricsRegistry::PrepareFamily(
    std::string_view name, std::string_view help, Kind kind,
    Provenance provenance, std::string_view labels) {
  if (!IsValidMetricName(name)) {
    return nullptr;
  }
  for (auto& family : families_) {
    if (family->name != name) {
      continue;
    }
    // Same family name: kind, help, and provenance must all agree, and the
    // label set must be new.
    if (family->kind != kind || family->help != help ||
        family->provenance != provenance) {
      return nullptr;
    }
    for (const Instrument& instrument : family->instruments) {
      if (instrument.labels == labels) {
        return nullptr;
      }
    }
    return family.get();
  }
  auto family = std::make_unique<Family>();
  family->name = std::string(name);
  family->help = std::string(help);
  family->kind = kind;
  family->provenance = provenance;
  families_.push_back(std::move(family));
  return families_.back().get();
}

Counter* MetricsRegistry::AddCallbackCounter(std::string_view name,
                                             std::string_view help,
                                             Provenance provenance,
                                             std::function<uint64_t()> read,
                                             std::string_view labels) {
  Family* family = PrepareFamily(name, help, Kind::kCounter, provenance, labels);
  if (family == nullptr) {
    return nullptr;
  }
  Instrument instrument;
  instrument.labels = std::string(labels);
  instrument.counter = std::make_unique<Counter>();
  instrument.counter->read_ = std::move(read);
  family->instruments.push_back(std::move(instrument));
  return family->instruments.back().counter.get();
}

Gauge* MetricsRegistry::AddCallbackGauge(std::string_view name,
                                         std::string_view help,
                                         Provenance provenance,
                                         std::function<double()> read,
                                         std::string_view labels) {
  Family* family = PrepareFamily(name, help, Kind::kGauge, provenance, labels);
  if (family == nullptr) {
    return nullptr;
  }
  Instrument instrument;
  instrument.labels = std::string(labels);
  instrument.gauge = std::make_unique<Gauge>();
  instrument.gauge->read_ = std::move(read);
  family->instruments.push_back(std::move(instrument));
  return family->instruments.back().gauge.get();
}

Histogram* MetricsRegistry::AddHistogram(std::string_view name,
                                         std::string_view help,
                                         Provenance provenance,
                                         std::vector<int64_t> bounds,
                                         std::string_view labels) {
  Family* family =
      PrepareFamily(name, help, Kind::kHistogram, provenance, labels);
  if (family == nullptr) {
    return nullptr;
  }
  Instrument instrument;
  instrument.labels = std::string(labels);
  instrument.histogram = std::make_unique<Histogram>(std::move(bounds));
  family->instruments.push_back(std::move(instrument));
  return family->instruments.back().histogram.get();
}

const MetricsRegistry::Instrument* MetricsRegistry::FindInstrument(
    std::string_view name, Kind kind, std::string_view labels) const {
  for (const auto& family : families_) {
    if (family->name != name || family->kind != kind) {
      continue;
    }
    for (const Instrument& instrument : family->instruments) {
      if (instrument.labels == labels) {
        return &instrument;
      }
    }
  }
  return nullptr;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name,
                                            std::string_view labels) const {
  const Instrument* instrument = FindInstrument(name, Kind::kCounter, labels);
  return instrument == nullptr ? nullptr : instrument->counter.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name,
                                        std::string_view labels) const {
  const Instrument* instrument = FindInstrument(name, Kind::kGauge, labels);
  return instrument == nullptr ? nullptr : instrument->gauge.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name,
                                                std::string_view labels) const {
  const Instrument* instrument = FindInstrument(name, Kind::kHistogram, labels);
  return instrument == nullptr ? nullptr : instrument->histogram.get();
}

namespace {

std::string FormatDouble(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.6g", value);
}

// Two label bodies joined with a comma; either may be empty.
std::string JoinLabels(const std::string& a, const std::string& b) {
  return a.empty() ? b : b.empty() ? a : a + "," + b;
}

std::string SeriesName(const std::string& name, const char* suffix,
                       const std::string& labels) {
  return labels.empty() ? name + suffix : name + suffix + "{" + labels + "}";
}

}  // namespace

void MetricsRegistry::ForEachSimValue(
    const std::function<void(const std::string& name,
                             const std::string& labels,
                             const std::string& value)>& visit) const {
  for (const auto& family : families_) {
    if (family->provenance != Provenance::kSim ||
        family->kind == Kind::kHistogram) {
      continue;
    }
    for (const Instrument& instrument : family->instruments) {
      visit(family->name, instrument.labels,
            family->kind == Kind::kCounter
                ? std::to_string(instrument.counter->value())
                : FormatDouble(instrument.gauge->value()));
    }
  }
}

std::string RenderSimValueLines(const MetricsRegistry& registry) {
  std::string out;
  registry.ForEachSimValue([&out](const std::string& name,
                                  const std::string& labels,
                                  const std::string& value) {
    out += SeriesName(name, "", labels) + " " + value + "\n";
  });
  return out;
}

std::string MetricsRegistry::RenderPrometheus(
    const RenderOptions& options) const {
  return obs::RenderPrometheus({{this, ""}}, options);
}

std::string RenderPrometheus(const std::vector<RenderPart>& parts,
                             const RenderOptions& options) {
  using Family = MetricsRegistry::Family;
  using Kind = MetricsRegistry::Kind;
  // Family names in first-appearance order, each with its (part label,
  // family) members in part order.
  struct Group {
    const Family* first;
    std::vector<std::pair<const std::string*, const Family*>> members;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string_view, size_t> group_of;
  for (const RenderPart& part : parts) {
    for (const auto& family : part.registry->families_) {
      if (!options.include_wall && family->provenance == Provenance::kWall) {
        continue;
      }
      auto [it, added] = group_of.try_emplace(family->name, groups.size());
      if (added) {
        groups.push_back({family.get(), {}});
      }
      Group& group = groups[it->second];
      if (group.first->kind == family->kind &&
          group.first->help == family->help &&
          group.first->provenance == family->provenance) {
        group.members.emplace_back(&part.label, family.get());
      }
    }
  }

  std::string out;
  for (const Group& group : groups) {
    const Family& head = *group.first;
    const char* type = head.kind == Kind::kCounter    ? "counter"
                       : head.kind == Kind::kGauge    ? "gauge"
                                                      : "histogram";
    out += "# HELP " + head.name + " " + head.help + "\n";
    out += "# TYPE " + head.name + " " + type + "\n";
    for (const auto& [part_label, family] : group.members) {
      for (const auto& instrument : family->instruments) {
        const std::string labels = JoinLabels(*part_label, instrument.labels);
        auto series = [&](const char* suffix, const std::string& extra,
                          const std::string& value) {
          out += SeriesName(head.name, suffix, JoinLabels(labels, extra)) +
                 " " + value + "\n";
        };
        switch (head.kind) {
          case Kind::kCounter:
            series("", "", std::to_string(instrument.counter->value()));
            break;
          case Kind::kGauge:
            series("", "", FormatDouble(instrument.gauge->value()));
            break;
          case Kind::kHistogram: {
            const Histogram& histogram = *instrument.histogram;
            uint64_t cumulative = 0;
            for (size_t i = 0; i < histogram.bounds().size(); ++i) {
              cumulative += histogram.bucket_counts()[i];
              series("_bucket",
                     "le=\"" + std::to_string(histogram.bounds()[i]) + "\"",
                     std::to_string(cumulative));
            }
            series("_bucket", "le=\"+Inf\"", std::to_string(histogram.count()));
            series("_sum", "", std::to_string(histogram.sum()));
            series("_count", "", std::to_string(histogram.count()));
            break;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace rcb
