#include "models/des56/des56_tlm_ca.h"

namespace repro::models {

const support::Snapshot& Des56TlmCa::prototype() {
  if (!keys_) {
    auto keys = std::make_shared<support::Snapshot::Keys>(
        support::Snapshot::Keys{"ds", "indata", "key", "decrypt", "out", "rdy",
                                "rdy_next_cycle", "rdy_next_next_cycle"});
    for (const auto& [name, value] : statics_) keys->push_back(name);
    keys_ = keys;
    proto_ = support::Snapshot(keys_);
    for (const auto& [name, value] : statics_) proto_.set(name, value);
  }
  return proto_;
}

void Des56TlmCa::b_transport(tlm::Payload& payload, sim::Time& delay) {
  // One transaction == one clock edge; it completes instantaneously.
  delay += 0;
  if (payload.command != tlm::Command::kWrite || payload.data.size() < 4) {
    payload.response = tlm::Response::kGenericError;
    return;
  }
  Des56Inputs in;
  in.ds = payload.data[0] != 0;
  in.indata = payload.data[1];
  in.key = payload.data[2];
  in.decrypt = payload.data[3] != 0;
  const Des56Outputs o = core_.step(in);

  payload.response = tlm::Response::kOk;
  payload.data.assign({o.out, o.rdy ? uint64_t{1} : 0,
                       o.rdy_next_cycle ? uint64_t{1} : 0,
                       o.rdy_next_next_cycle ? uint64_t{1} : 0});
  if (!payload.monitored) return;

  payload.observables = prototype();
  payload.observables.set_at(kDs, in.ds ? 1 : 0);
  payload.observables.set_at(kIndata, in.indata);
  payload.observables.set_at(kKey, in.key);
  payload.observables.set_at(kDecrypt, in.decrypt ? 1 : 0);
  payload.observables.set_at(kOut, o.out);
  payload.observables.set_at(kRdy, o.rdy ? 1 : 0);
  payload.observables.set_at(kRdyNc, o.rdy_next_cycle ? 1 : 0);
  payload.observables.set_at(kRdyNnc, o.rdy_next_next_cycle ? 1 : 0);
}

}  // namespace repro::models
