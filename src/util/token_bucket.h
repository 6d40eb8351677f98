// Deterministic token bucket driven by simulated time.
//
// Refill is computed lazily from the elapsed sim-time delta on each call, so
// the bucket never schedules events of its own and two runs of the same
// simulation observe bit-identical admit/deny decisions.
#ifndef SRC_UTIL_TOKEN_BUCKET_H_
#define SRC_UTIL_TOKEN_BUCKET_H_

#include "src/util/sim_time.h"

namespace rcb {

class TokenBucket {
 public:
  TokenBucket() = default;
  // A bucket with `rate_per_sec` <= 0 is disabled: TryTake always succeeds.
  TokenBucket(double rate_per_sec, double burst)
      : rate_per_sec_(rate_per_sec),
        burst_(burst),
        tokens_(burst) {}

  bool enabled() const { return rate_per_sec_ > 0.0; }

  // Takes `cost` tokens if available at `now`. Returns false (and takes
  // nothing) when the bucket is too empty.
  bool TryTake(SimTime now, double cost = 1.0);

  // Sim-time until `cost` tokens will be available (Zero if already
  // available). Used to populate Retry-After hints.
  Duration TimeUntilAvailable(SimTime now, double cost = 1.0) const;

 private:
  void Refill(SimTime now);

  double rate_per_sec_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  SimTime last_refill_;
};

}  // namespace rcb

#endif  // SRC_UTIL_TOKEN_BUCKET_H_
