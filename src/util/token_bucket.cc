#include "src/util/token_bucket.h"

namespace rcb {

void TokenBucket::Refill(SimTime now) {
  if (now <= last_refill_) {
    return;
  }
  double elapsed_sec =
      static_cast<double>((now - last_refill_).micros()) / 1e6;
  tokens_ += elapsed_sec * rate_per_sec_;
  if (tokens_ > burst_) {
    tokens_ = burst_;
  }
  last_refill_ = now;
}

bool TokenBucket::TryTake(SimTime now, double cost) {
  if (!enabled()) {
    return true;
  }
  Refill(now);
  if (tokens_ + 1e-9 < cost) {
    return false;
  }
  tokens_ -= cost;
  return true;
}

Duration TokenBucket::TimeUntilAvailable(SimTime now, double cost) const {
  if (!enabled()) {
    return Duration::Zero();
  }
  TokenBucket copy = *this;
  copy.Refill(now);
  if (copy.tokens_ + 1e-9 >= cost) {
    return Duration::Zero();
  }
  double deficit = cost - copy.tokens_;
  return Duration::Micros(
      static_cast<int64_t>(deficit / rate_per_sec_ * 1e6) + 1);
}

}  // namespace rcb
