#include "src/obs/slo/slo.h"

#include "src/common/strings.h"

namespace yieldhide::obs {

Status SloConfig::Validate() const {
  if (latency_budget_cycles == 0) {
    return InvalidArgumentError("slo: latency_budget_cycles must be > 0");
  }
  if (!(objective > 0.0 && objective < 1.0)) {
    return InvalidArgumentError("slo: objective must be in (0, 1)");
  }
  if (bucket_cycles == 0) {
    return InvalidArgumentError("slo: bucket_cycles must be > 0");
  }
  if (fast_window_cycles < bucket_cycles) {
    return InvalidArgumentError(
        "slo: fast_window_cycles must be >= bucket_cycles");
  }
  if (slow_window_cycles < fast_window_cycles) {
    return InvalidArgumentError(
        "slo: slow_window_cycles must be >= fast_window_cycles");
  }
  if (fast_burn_threshold <= 0.0 || slow_burn_threshold <= 0.0) {
    return InvalidArgumentError("slo: burn thresholds must be > 0");
  }
  return Status::Ok();
}

SloEvaluator::SloEvaluator(const SloConfig& config) : config_(config) {}

void SloEvaluator::SetMetrics(MetricsRegistry* metrics, Labels labels) {
  metrics_ = metrics;
  labels_ = std::move(labels);
}

void SloEvaluator::Trim(uint64_t now) {
  const uint64_t horizon =
      now > config_.slow_window_cycles ? now - config_.slow_window_cycles : 0;
  while (!buckets_.empty() &&
         buckets_.front().start + config_.bucket_cycles <= horizon) {
    buckets_.pop_front();
  }
}

double SloEvaluator::BurnOver(uint64_t now, uint64_t window) const {
  const uint64_t from = now > window ? now - window : 0;
  uint64_t total = 0;
  uint64_t bad = 0;
  for (const Bucket& b : buckets_) {
    // Whole-bucket accounting: a bucket belongs to the window once it
    // overlaps it. Deterministic and cheap; the bucket width bounds the
    // rounding to one bucket per window edge.
    if (b.start + config_.bucket_cycles > from) {
      total += b.total;
      bad += b.bad;
    }
  }
  if (total == 0) {
    return 0.0;
  }
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  return bad_fraction / (1.0 - config_.objective);
}

void SloEvaluator::Record(uint64_t now, uint64_t latency_cycles) {
  if (!config_.enabled) {
    return;
  }
  ++recorded_;
  const uint64_t start = now - (now % config_.bucket_cycles);
  if (buckets_.empty() || buckets_.back().start != start) {
    buckets_.push_back(Bucket{start, 0, 0});
  }
  Bucket& b = buckets_.back();
  const bool is_bad = latency_cycles > config_.latency_budget_cycles;
  ++b.total;
  ++total_;
  if (is_bad) {
    ++b.bad;
    ++bad_;
  }
  Trim(now);
  fast_burn_ = BurnOver(now, config_.fast_window_cycles);
  slow_burn_ = BurnOver(now, config_.slow_window_cycles);

  const bool over = fast_burn_ >= config_.fast_burn_threshold &&
                    slow_burn_ >= config_.slow_burn_threshold;
  if (over && !alert_active_) {
    alert_active_ = true;
    ++alerts_fired_;
    TraceEmit(trace_, TraceEventType::kSloAlertFire, now, shard_,
              config_.latency_budget_cycles,
              static_cast<uint64_t>(fast_burn_ * 1e6));
  } else if (!over && alert_active_ &&
             fast_burn_ < config_.fast_burn_threshold &&
             slow_burn_ < config_.slow_burn_threshold) {
    alert_active_ = false;
    ++alerts_cleared_;
    TraceEmit(trace_, TraceEventType::kSloAlertClear, now, shard_,
              config_.latency_budget_cycles,
              static_cast<uint64_t>(fast_burn_ * 1e6));
  }
}

uint64_t SloEvaluator::TakeUnchargedOverheadCycles() {
  const uint64_t delta = (recorded_ - charged_) * kSloRecordCostCycles;
  charged_ = recorded_;
  return delta;
}

void SloEvaluator::PublishMetrics() {
  if (metrics_ == nullptr || !config_.enabled) {
    return;
  }
  metrics_->GetCounter("yh_slo_requests_total", labels_)->Set(total_);
  metrics_->GetCounter("yh_slo_bad_total", labels_)->Set(bad_);
  metrics_->GetCounter("yh_slo_alerts_fired_total", labels_)
      ->Set(alerts_fired_);
  metrics_->GetCounter("yh_slo_alerts_cleared_total", labels_)
      ->Set(alerts_cleared_);
  metrics_->GetGauge("yh_slo_burn_rate_fast", labels_)->Set(fast_burn_);
  metrics_->GetGauge("yh_slo_burn_rate_slow", labels_)->Set(slow_burn_);
  metrics_->GetGauge("yh_slo_alert_active", labels_)
      ->Set(alert_active_ ? 1.0 : 0.0);
}

std::string SloEvaluator::Summary() const {
  return StrFormat(
      "slo: %llu/%llu bad (budget %s cycles, objective %.4f) "
      "burn fast=%.2f slow=%.2f alert=%s fired=%u cleared=%u",
      static_cast<unsigned long long>(bad_),
      static_cast<unsigned long long>(total_),
      WithCommas(config_.latency_budget_cycles).c_str(), config_.objective,
      fast_burn_, slow_burn_, alert_active_ ? "ACTIVE" : "clear",
      alerts_fired_, alerts_cleared_);
}

}  // namespace yieldhide::obs
