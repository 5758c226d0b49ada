#include "models/colorconv/colorconv_tlm_ca.h"

namespace repro::models {

const support::Snapshot& ColorConvTlmCa::prototype() {
  if (!keys_) {
    auto keys = std::make_shared<support::Snapshot::Keys>(
        support::Snapshot::Keys{"ds", "r", "g", "b", "sof", "y", "cb", "cr",
                                "rdy", "rdy_next_cycle"});
    for (const auto& [name, value] : statics_) keys->push_back(name);
    keys_ = keys;
    proto_ = support::Snapshot(keys_);
    for (const auto& [name, value] : statics_) proto_.set(name, value);
  }
  return proto_;
}

void ColorConvTlmCa::b_transport(tlm::Payload& payload, sim::Time& delay) {
  delay += 0;  // one transaction == one clock edge, completing instantly
  if (payload.command != tlm::Command::kWrite || payload.data.size() < 5) {
    payload.response = tlm::Response::kGenericError;
    return;
  }
  ColorConvInputs in;
  in.ds = payload.data[0] != 0;
  in.r = static_cast<uint8_t>(payload.data[1]);
  in.g = static_cast<uint8_t>(payload.data[2]);
  in.b = static_cast<uint8_t>(payload.data[3]);
  const uint64_t sof = payload.data[4];
  const ColorConvOutputs o = core_.step(in);

  payload.response = tlm::Response::kOk;
  payload.data.assign({o.rdy ? uint64_t{1} : 0, uint64_t{o.y}, uint64_t{o.cb},
                       uint64_t{o.cr}, o.rdy_next_cycle ? uint64_t{1} : 0});
  if (!payload.monitored) return;

  payload.observables = prototype();
  payload.observables.set_at(kDsIdx, in.ds ? 1 : 0);
  payload.observables.set_at(kR, in.r);
  payload.observables.set_at(kG, in.g);
  payload.observables.set_at(kB, in.b);
  payload.observables.set_at(kSof, sof);
  payload.observables.set_at(kY, o.y);
  payload.observables.set_at(kCb, o.cb);
  payload.observables.set_at(kCr, o.cr);
  payload.observables.set_at(kRdy, o.rdy ? 1 : 0);
  payload.observables.set_at(kRdyNc, o.rdy_next_cycle ? 1 : 0);
}

}  // namespace repro::models
