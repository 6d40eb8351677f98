// Test helpers for the status pages (/status, /host/status): the lines
// their #metrics element lists, and the lines a registry's sim exposition
// says it must list.
#ifndef TESTS_SUPPORT_STATUS_LINES_H_
#define TESTS_SUPPORT_STATUS_LINES_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/html/parser.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace rcb {

// The `name{labels} value` lines of a status page's #metrics element.
inline std::vector<std::string> StatusMetricsLines(const std::string& html) {
  auto page = ParseDocument(html);
  Element* metrics = page->ById("metrics");
  EXPECT_NE(metrics, nullptr);
  return metrics == nullptr ? std::vector<std::string>{}
                            : StrSplitSkipEmpty(metrics->TextContent(), '\n');
}

// Every counter and gauge series line of `registry`'s sim exposition, in
// exposition order, each checked against the value FindCounter/FindGauge
// reads now.
inline std::vector<std::string> ExpectedStatusLines(
    const obs::MetricsRegistry& registry) {
  obs::RenderOptions options;
  options.include_wall = false;
  std::vector<std::string> lines;
  std::string type;
  for (const std::string& line :
       StrSplitSkipEmpty(registry.RenderPrometheus(options), '\n')) {
    if (StartsWith(line, "# TYPE ")) {
      type = line.substr(line.rfind(' ') + 1);
      continue;
    }
    if (line[0] == '#' || (type != "counter" && type != "gauge")) {
      continue;
    }
    const size_t space = line.rfind(' ');
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const size_t brace = series.find('{');
    const std::string name = series.substr(0, brace);
    const std::string labels =
        brace == std::string::npos
            ? ""
            : series.substr(brace + 1, series.size() - brace - 2);
    if (type == "counter") {
      const obs::Counter* counter = registry.FindCounter(name, labels);
      EXPECT_NE(counter, nullptr) << series;
      if (counter != nullptr) {
        EXPECT_EQ(value, std::to_string(counter->value())) << series;
      }
    } else {
      const obs::Gauge* gauge = registry.FindGauge(name, labels);
      EXPECT_NE(gauge, nullptr) << series;
      if (gauge != nullptr) {
        EXPECT_DOUBLE_EQ(std::stod(value), gauge->value()) << series;
      }
    }
    lines.push_back(line);
  }
  return lines;
}

}  // namespace rcb

#endif  // TESTS_SUPPORT_STATUS_LINES_H_
