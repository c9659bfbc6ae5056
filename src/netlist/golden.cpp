#include "relogic/netlist/golden.hpp"

namespace relogic::netlist {

GoldenSim::GoldenSim(const Netlist& nl) : nl_(&nl), order_(nl.topo_order()) {
  values_.assign(nl.node_count(), false);
  reset();
}

void GoldenSim::reset() {
  for (SigId id = 0; id < nl_->node_count(); ++id) {
    const Node& n = nl_->node(id);
    switch (n.kind) {
      case OpKind::kConst1:
        values_[id] = true;
        break;
      case OpKind::kDff:
      case OpKind::kLatch:
        values_[id] = n.init;
        break;
      default:
        values_[id] = false;
    }
  }
  settle();
}

void GoldenSim::set_input(SigId input, bool value) {
  RELOGIC_CHECK(nl_->node(input).kind == OpKind::kInput);
  values_[input] = value;
}

void GoldenSim::set_input(const std::string& name, bool value) {
  set_input(nl_->find_input(name), value);
}

bool GoldenSim::eval_node(SigId id) const {
  const Node& n = nl_->node(id);
  auto v = [&](int i) { return values_[n.fanin[static_cast<std::size_t>(i)]]; };
  switch (n.kind) {
    case OpKind::kBuf:
      return v(0);
    case OpKind::kNot:
      return !v(0);
    case OpKind::kAnd:
      return v(0) && v(1);
    case OpKind::kOr:
      return v(0) || v(1);
    case OpKind::kNand:
      return !(v(0) && v(1));
    case OpKind::kNor:
      return !(v(0) || v(1));
    case OpKind::kXor:
      return v(0) != v(1);
    case OpKind::kXnor:
      return v(0) == v(1);
    case OpKind::kMux:
      return v(2) ? v(1) : v(0);
    case OpKind::kLut: {
      unsigned vec = 0;
      for (std::size_t i = 0; i < n.fanin.size(); ++i)
        vec |= (values_[n.fanin[i]] ? 1u : 0u) << i;
      return ((n.lut >> vec) & 1u) != 0;
    }
    default:
      RELOGIC_CHECK_MSG(false, "eval_node on a non-combinational node");
  }
  return false;
}

void GoldenSim::propagate_comb() {
  for (SigId id : order_) values_[id] = eval_node(id);
}

void GoldenSim::settle() {
  // Latches may be transparent, so iterate comb + latch evaluation to a
  // fixed point (bounded by the number of state elements + 1 rounds).
  propagate_comb();
  const int rounds = static_cast<int>(nl_->state_elements().size()) + 1;
  for (int r = 0; r < rounds; ++r) {
    bool changed = false;
    for (SigId s : nl_->state_elements()) {
      const Node& n = nl_->node(s);
      if (n.kind != OpKind::kLatch) continue;
      const bool gate = values_[n.fanin[1]];
      if (gate) {
        const bool d = values_[n.fanin[0]];
        if (values_[s] != d) {
          values_[s] = d;
          changed = true;
        }
      }
    }
    if (!changed) return;
    propagate_comb();
  }
  RELOGIC_CHECK_MSG(false,
                    "latch network failed to settle in netlist " + nl_->name());
}

void GoldenSim::clock() {
  // Capture phase: sample every DFF's D (and CE) simultaneously.
  captures_.clear();
  for (SigId s : nl_->state_elements()) {
    const Node& n = nl_->node(s);
    if (n.kind != OpKind::kDff) continue;
    const bool ce = n.fanin.size() < 2 || values_[n.fanin[1]];
    if (ce) captures_.emplace_back(s, values_[n.fanin[0]]);
  }
  for (const auto& [s, d] : captures_) values_[s] = d;
  settle();
}

bool GoldenSim::output(const std::string& name) const {
  auto sig = nl_->find_output(name);
  RELOGIC_CHECK_MSG(sig.has_value(), "no output named " + name);
  return values_[*sig];
}

std::vector<bool> GoldenSim::state() const {
  std::vector<bool> out;
  out.reserve(nl_->state_elements().size());
  for (SigId s : nl_->state_elements()) out.push_back(values_[s]);
  return out;
}

std::vector<bool> GoldenSim::outputs() const {
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (const auto& o : nl_->outputs()) out.push_back(values_[o.signal]);
  return out;
}

}  // namespace relogic::netlist
