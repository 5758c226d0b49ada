#include "models/colorconv/colorconv_tlm_at.h"

namespace repro::models {

bool ColorConvTlmAt::rdy_at(sim::Time t) const {
  for (const InFlight& f : in_flight_) {
    if (f.done == t) return true;
    if (f.done > t) break;  // deque is in increasing done order
  }
  return false;
}

Ycbcr ColorConvTlmAt::out_at(sim::Time t) const {
  Ycbcr out = last_out_;
  for (const InFlight& f : in_flight_) {
    if (f.done > t) break;
    out = f.result;
  }
  return out;
}

void ColorConvTlmAt::prune(sim::Time now) {
  while (!in_flight_.empty() && in_flight_.front().done < now &&
         in_flight_.front().read_issued) {
    last_out_ = in_flight_.front().result;
    in_flight_.pop_front();
  }
}

support::Snapshot ColorConvTlmAt::snapshot(bool ds, uint8_t r, uint8_t g,
                                       uint8_t b, uint64_t sof, sim::Time at) {
  if (!keys_) {
    auto keys = std::make_shared<support::Snapshot::Keys>(
        support::Snapshot::Keys{"ds", "r", "g", "b", "sof", "y", "cb", "cr",
                                "rdy"});
    for (const auto& [name, value] : statics_) keys->push_back(name);
    keys_ = keys;
    proto_ = support::Snapshot(keys_);
    for (const auto& [name, value] : statics_) proto_.set(name, value);
  }
  support::Snapshot values = proto_;
  const Ycbcr out = out_at(at);
  values.set_at(kDsIdx, ds ? 1 : 0);
  values.set_at(kR, r);
  values.set_at(kG, g);
  values.set_at(kB, b);
  values.set_at(kSof, sof);
  values.set_at(kY, out.y);
  values.set_at(kCb, out.cb);
  values.set_at(kCr, out.cr);
  values.set_at(kRdy, rdy_at(at) ? 1 : 0);
  return values;
}

void ColorConvTlmAt::b_transport(tlm::Payload& payload, sim::Time& delay) {
  // Temporal decoupling: the transaction starts `delay` after kernel time.
  const sim::Time now = kernel_.now() + delay;
  prune(now);
  if (payload.command == tlm::Command::kWrite) {
    if (payload.data.size() < 4) {
      payload.response = tlm::Response::kGenericError;
      return;
    }
    const uint8_t r = static_cast<uint8_t>(payload.data[0]);
    const uint8_t g = static_cast<uint8_t>(payload.data[1]);
    const uint8_t b = static_cast<uint8_t>(payload.data[2]);
    const uint64_t sof = payload.data[3];
    InFlight f;
    f.done = now + kLatencyCycles * period_;
    f.result = colorconv_ref(r, g, b);
    in_flight_.push_back(f);
    // The write completes instantly: the pipeline accepts a pixel per cycle.
    payload.response = tlm::Response::kOk;
    if (payload.monitored) {
      payload.observables = snapshot(/*ds=*/true, r, g, b, sof, now);
    }
    return;
  }
  // Read: pops the oldest pixel without an issued read; completion carries
  // the pipeline latency relative to the pixel's submission.
  for (InFlight& f : in_flight_) {
    if (f.read_issued) continue;
    f.read_issued = true;
    delay += f.done - now;
    payload.data = {f.result.y, f.result.cb, f.result.cr};
    payload.response = tlm::Response::kOk;
    // Response-phase snapshot: request signals are not re-exposed (ds=0), so
    // ds-guarded properties do not re-fire on stale input values.
    if (payload.monitored) {
      payload.observables = snapshot(/*ds=*/false, 0, 0, 0, /*sof=*/0, f.done);
    }
    return;
  }
  payload.response = tlm::Response::kGenericError;
}

void ColorConvTlmAt::emit_idle(sim::Time at) {
  if (recorder_ == nullptr || !recorder_->active()) return;
  prune(kernel_.now());
  tlm::TransactionRecord record;
  record.start = kernel_.now();
  record.end = at;
  record.command = tlm::Command::kWrite;
  record.observables = snapshot(/*ds=*/false, 0, 0, 0, /*sof=*/0, at);
  recorder_->emit(std::move(record));
}

}  // namespace repro::models
