#include "models/des56/des56_tlm_at.h"

namespace repro::models {

support::Snapshot Des56TlmAt::snapshot(bool ds, bool rdy, uint64_t out) {
  if (!keys_) {
    auto keys = std::make_shared<support::Snapshot::Keys>(
        support::Snapshot::Keys{"ds", "indata", "key", "decrypt", "out",
                                "rdy"});
    for (const auto& [name, value] : statics_) keys->push_back(name);
    keys_ = keys;
    proto_ = support::Snapshot(keys_);
    for (const auto& [name, value] : statics_) proto_.set(name, value);
  }
  support::Snapshot values = proto_;
  values.set_at(kDs, ds ? 1 : 0);
  values.set_at(kIndata, indata_);
  values.set_at(kKey, key_);
  values.set_at(kDecrypt, decrypt_ ? 1 : 0);
  values.set_at(kOut, out);
  values.set_at(kRdy, rdy ? 1 : 0);
  return values;
}

void Des56TlmAt::emit_phase(sim::Time at, tlm::Command command,
                            support::Snapshot observables) {
  if (recorder_ == nullptr || !recorder_->active()) return;
  tlm::TransactionRecord record;
  record.start = kernel_.now();
  record.end = at;
  record.command = command;
  record.observables = std::move(observables);
  recorder_->emit(std::move(record));
}

void Des56TlmAt::b_transport(tlm::Payload& payload, sim::Time& delay) {
  // Temporal decoupling: the transaction starts `delay` after kernel time.
  const sim::Time now = kernel_.now() + delay;
  const bool monitored =
      payload.monitored && recorder_ != nullptr && recorder_->active();
  if (payload.command == tlm::Command::kWrite) {
    if (payload.data.size() < 3 || pending_) {
      payload.response = tlm::Response::kGenericError;
      return;
    }
    indata_ = payload.data[0];
    key_ = payload.data[1];
    decrypt_ = payload.data[2] != 0;
    // The IP function is computed here, untimed; the latency is pure timing
    // annotation, which is what makes the AT model fast.
    result_ = decrypt_ ? des_decrypt(indata_, key_) : des_encrypt(indata_, key_);
    pending_ = true;
    // END_REQ one cycle after BEGIN_REQ: ds has fallen.
    delay += period_;
    payload.response = tlm::Response::kOk;
    if (monitored) {
      // BEGIN_REQ: the instant where ds rises at RTL.
      emit_phase(now, tlm::Command::kWrite,
                 snapshot(/*ds=*/true, /*rdy=*/false, last_out_));
      payload.observables = snapshot(/*ds=*/false, /*rdy=*/false, last_out_);
    }
    return;
  }
  // Read: returns the pending result with the full IP latency annotated.
  if (!pending_) {
    payload.response = tlm::Response::kGenericError;
    return;
  }
  pending_ = false;
  delay += (kLatencyCycles + 1) * period_;
  payload.data = {result_};
  payload.response = tlm::Response::kOk;
  if (monitored) {
    // BEGIN_RESP: the instant where rdy rises and out changes at RTL.
    emit_phase(now + kLatencyCycles * period_, tlm::Command::kRead,
               snapshot(/*ds=*/false, /*rdy=*/true, result_));
    // END_RESP one cycle later: rdy has fallen, out keeps the result.
    payload.observables = snapshot(/*ds=*/false, /*rdy=*/false, result_);
  }
  last_out_ = result_;
}

}  // namespace repro::models
