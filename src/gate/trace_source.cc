#include "gate/trace_source.h"

namespace flexmoe {

GeneratorTraceSource::~GeneratorTraceSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (worker_.joinable()) worker_.join();
}

std::vector<Assignment> GeneratorTraceSource::NextStep() {
  if (!worker_.joinable()) {
    worker_ = std::thread(&GeneratorTraceSource::Produce, this);
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return slot_full_; });
  std::vector<Assignment> step = std::move(slot_);
  slot_full_ = false;
  lock.unlock();
  cv_.notify_one();
  return step;
}

void GeneratorTraceSource::Produce() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !slot_full_ || stop_; });
      if (stop_) return;
    }
    std::vector<Assignment> step = gen_.Step();
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot_ = std::move(step);
      slot_full_ = true;
    }
    cv_.notify_one();
  }
}

std::vector<Assignment> ReplayTraceSource::NextStep() {
  FLEXMOE_CHECK_MSG(cursor_ < trace_.num_steps(),
                    "replay trace exhausted");
  const std::vector<Assignment>& step =
      trace_.step(static_cast<int>(cursor_));
  ++cursor_;
  return step;
}

std::vector<Assignment> RecordingTraceSource::NextStep() {
  std::vector<Assignment> step = inner_->NextStep();
  FLEXMOE_CHECK_MSG(sink_->Append(step).ok(),
                    "recorded step shape mismatch");
  return step;
}

uint64_t HashStep(const std::vector<Assignment>& step, uint64_t h) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= kPrime;
    }
  };
  for (const Assignment& a : step) {
    mix(static_cast<uint64_t>(a.num_experts()));
    mix(static_cast<uint64_t>(a.num_gpus()));
    for (int e = 0; e < a.num_experts(); ++e) {
      const int64_t* row = a.row(e);
      for (int g = 0; g < a.num_gpus(); ++g) {
        mix(static_cast<uint64_t>(row[g]));
      }
    }
  }
  return h;
}

}  // namespace flexmoe
