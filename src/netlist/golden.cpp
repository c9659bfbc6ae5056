#include "relogic/netlist/golden.hpp"

namespace relogic::netlist {

namespace {

/// The truth table of a combinational node, fanin i being bit i of the
/// input vector.
std::uint16_t truth_table(const Node& n) {
  if (n.kind == OpKind::kLut) return n.lut;
  std::uint16_t mask = 0;
  for (unsigned vec = 0; vec < (1u << n.fanin.size()); ++vec) {
    auto v = [&](unsigned i) { return ((vec >> i) & 1u) != 0; };
    bool out = false;
    switch (n.kind) {
      case OpKind::kBuf:
        out = v(0);
        break;
      case OpKind::kNot:
        out = !v(0);
        break;
      case OpKind::kAnd:
        out = v(0) && v(1);
        break;
      case OpKind::kOr:
        out = v(0) || v(1);
        break;
      case OpKind::kNand:
        out = !(v(0) && v(1));
        break;
      case OpKind::kNor:
        out = !(v(0) || v(1));
        break;
      case OpKind::kXor:
        out = v(0) != v(1);
        break;
      case OpKind::kXnor:
        out = v(0) == v(1);
        break;
      case OpKind::kMux:
        out = v(2) ? v(1) : v(0);
        break;
      default:
        RELOGIC_CHECK_MSG(false, "truth_table of a non-combinational node");
    }
    if (out) mask = static_cast<std::uint16_t>(mask | (1u << vec));
  }
  return mask;
}

}  // namespace

GoldenSim::GoldenSim(const Netlist& nl) : nl_(&nl) {
  const auto zero = static_cast<SigId>(nl.node_count());
  const SigId one = zero + 1;
  for (const SigId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    RELOGIC_CHECK(n.fanin.size() <= 4);
    Op op{truth_table(n), id, {zero, zero, zero, zero}};
    for (std::size_t i = 0; i < n.fanin.size(); ++i) op.in[i] = n.fanin[i];
    ops_.push_back(op);
  }
  for (const SigId s : nl.state_elements()) {
    const Node& n = nl.node(s);
    if (n.kind == OpKind::kDff) {
      dffs_.push_back({s, n.fanin[0], n.fanin.size() < 2 ? one : n.fanin[1]});
    } else {
      latches_.push_back({s, n.fanin[0], n.fanin[1]});
    }
  }
  values_.assign(nl.node_count() + 2, 0);
  values_[one] = 1;
  captures_.resize(dffs_.size());
  reset();
}

void GoldenSim::reset() {
  for (SigId id = 0; id < nl_->node_count(); ++id) {
    const Node& n = nl_->node(id);
    switch (n.kind) {
      case OpKind::kConst1:
        values_[id] = 1;
        break;
      case OpKind::kDff:
      case OpKind::kLatch:
        values_[id] = n.init;
        break;
      default:
        values_[id] = 0;
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

void GoldenSim::propagate_comb() {
  std::uint8_t* v = values_.data();
  for (const Op& op : ops_) {
    const unsigned vec = v[op.in[0]] | v[op.in[1]] << 1 | v[op.in[2]] << 2 |
                         v[op.in[3]] << 3;
    v[op.out] = static_cast<std::uint8_t>((op.lut >> vec) & 1u);
  }
}

void GoldenSim::settle() {
  // Latches may be transparent, so iterate comb + latch evaluation to a
  // fixed point (bounded by the number of state elements + 1 rounds).
  propagate_comb();
  const int rounds = static_cast<int>(nl_->state_elements().size()) + 1;
  for (int r = 0; r < rounds; ++r) {
    bool changed = false;
    for (const Storage& l : latches_) {
      if (values_[l.en] && values_[l.q] != values_[l.d]) {
        values_[l.q] = values_[l.d];
        changed = true;
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
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const Storage& f = dffs_[i];
    captures_[i] = values_[f.en] ? values_[f.d] : values_[f.q];
  }
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    values_[dffs_[i].q] = captures_[i];
  settle();
}

void GoldenSim::clock(std::int64_t n) {
  RELOGIC_CHECK(n >= 0);
  // clock() is a function of values_ alone, so once values_ equals its
  // value `lam` edges earlier the model repeats with period lam. Brent's
  // cycle detection (BIT 20, 1980) finds such a repeat with one stored
  // vector, moving the tortoise up to the current edge whenever lam reaches
  // a power of two.
  std::int64_t power = 1;
  std::int64_t lam = 0;
  if (n > 1) tortoise_ = values_;
  while (n > 1) {
    clock();
    --n;
    ++lam;
    if (values_ == tortoise_) {
      n %= lam;
      break;
    }
    if (lam == power) {
      tortoise_ = values_;
      power *= 2;
      lam = 0;
    }
  }
  for (; n > 0; --n) clock();
}

bool GoldenSim::output(const std::string& name) const {
  auto sig = nl_->find_output(name);
  RELOGIC_CHECK_MSG(sig.has_value(), "no output named " + name);
  return values_[*sig] != 0;
}

std::vector<bool> GoldenSim::state() const {
  std::vector<bool> out;
  out.reserve(nl_->state_elements().size());
  for (SigId s : nl_->state_elements()) out.push_back(values_[s] != 0);
  return out;
}

std::vector<bool> GoldenSim::outputs() const {
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (const auto& o : nl_->outputs()) out.push_back(values_[o.signal] != 0);
  return out;
}

}  // namespace relogic::netlist
