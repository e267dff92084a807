// One deterministic multi-stream merge for every observer.
//
// A recorder (trace::Tracer, metrics::MetricsRegistry,
// obs::LineStatsRecorder, obs::ResourceStatsRecorder) observes one stream:
// one sweep point or measured section on its own System, identified by a
// stream id derived from configuration, never from scheduling.  Workers
// absorb finished recorders from any thread; merged() folds them in
// stream-id order through the recorder module's own
//
//   Merged merge_streams(std::span<const Recorder* const> in_stream_order);
//
// (found by argument-dependent lookup), so the merged result — double
// summation order included — is byte-identical for any --jobs value.  Two
// recorders on one stream id would leave their fold order to absorb order,
// so merged() refuses them with std::logic_error.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hsw {

template <class Recorder>
class StreamHub {
 public:
  // Thread-safe.  Recorders with a finalize() step (open episodes, open
  // queue-depth intervals) are closed here, so a live recorder can be handed
  // over directly.
  void absorb(Recorder&& recorder) {
    if constexpr (requires { recorder.finalize(); }) recorder.finalize();
    const std::lock_guard<std::mutex> lock(mutex_);
    recorders_.push_back(std::move(recorder));
  }

  [[nodiscard]] auto merged() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const Recorder*> order;
    order.reserve(recorders_.size());
    for (const Recorder& r : recorders_) order.push_back(&r);
    std::sort(order.begin(), order.end(),
              [](const Recorder* a, const Recorder* b) {
                return a->stream() < b->stream();
              });
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (order[i - 1]->stream() == order[i]->stream()) {
        throw std::logic_error(
            "StreamHub: stream id " + std::to_string(order[i]->stream()) +
            " was absorbed twice; the merge order would depend on "
            "scheduling");
      }
    }
    return merge_streams(std::span<const Recorder* const>(order));
  }

  [[nodiscard]] std::size_t stream_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return recorders_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Recorder> recorders_;
};

}  // namespace hsw
