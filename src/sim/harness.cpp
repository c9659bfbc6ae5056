#include "relogic/sim/harness.hpp"

namespace relogic::sim {

using netlist::Producer;
using netlist::SigId;

CircuitHarness::CircuitHarness(FabricSim& sim, const netlist::Netlist& nl,
                               const place::Implementation& impl)
    : sim_(&sim), nl_(&nl), impl_(&impl), golden_(nl) {}

void CircuitHarness::watch_registered_outputs() {
  for (const auto& [name, pad] : impl_->output_pads) {
    const auto sig = nl_->find_output(name);
    if (!sig.has_value()) continue;
    const auto& node = nl_->node(*sig);
    if (node.kind == netlist::OpKind::kDff ||
        node.kind == netlist::OpKind::kLatch) {
      sim_->monitor().watch(pad, impl_->name + "." + name);
    }
  }
}

void CircuitHarness::drive(const std::vector<bool>& inputs) {
  const auto& ins = nl_->inputs();
  RELOGIC_CHECK_MSG(inputs.size() == ins.size(),
                    "stimulus width does not match netlist inputs");
  for (std::size_t i = 0; i < ins.size(); ++i) {
    golden_.set_input(ins[i], inputs[i]);
    // Find the pad carrying this input.
    for (const auto& [sig, pad] : impl_->input_pads) {
      if (sig == ins[i]) {
        sim_->drive_pad(pad, inputs[i]);
        break;
      }
    }
  }
}

CircuitHarness::CycleResult CircuitHarness::compare(
    const char* when, std::optional<SimTime> margin) {
  CycleResult r;
  const auto prefix = [&] {
    std::string at = "cycle " + std::to_string(cycles_) + " (" + when;
    if (margin) at += ", drive-to-edge margin " + margin->to_string();
    return at + "): ";
  };
  for (const auto& [name, pad] : impl_->output_pads) {
    const bool want = golden_.output(name);
    const bool got = sim_->pad_value(pad);
    if (want != got) {
      ++r.output_mismatches;
      log_.push_back(prefix() + "output '" + name + "' fabric=" +
                     std::to_string(got) + " golden=" + std::to_string(want));
    }
  }
  for (SigId s : nl_->state_elements()) {
    const Producer& p = impl_->mapped.producer(s);
    if (p.kind != Producer::Kind::kCellXQ) continue;
    const auto& site = impl_->sites[static_cast<std::size_t>(p.cell)];
    const bool want = golden_.value(s);
    const bool got = sim_->state_of(site.clb, site.cell);
    if (want != got) {
      ++r.state_mismatches;
      log_.push_back(prefix() + "state '" + nl_->node(s).name + "' fabric=" +
                     std::to_string(got) + " golden=" + std::to_string(want));
    }
  }
  mismatches_ += r.output_mismatches + r.state_mismatches;
  return r;
}

CircuitHarness::CycleResult CircuitHarness::step(
    const std::vector<bool>& inputs) {
  const std::uint8_t domain = impl_->clock_domain;
  const SimTime period = sim_->clock_period(domain);

  // Input-timing contract: inputs are driven at least T/2 before the edge
  // that captures them. A reconfiguration can end at any clock phase, and
  // inputs driven just before an edge would reach the fabric's flip-flops
  // after it, while the golden model settles at once. So when the next
  // edge is closer than T/2, let it pass first: the replay below covers it
  // with the previous inputs held.
  const SimTime next = sim_->next_edge(domain, sim_->now() + SimTime::ps(1));
  if (next - sim_->now() < period / 2) sim_->run_until(next + period / 4);

  // The fabric may have clocked on while a reconfiguration ran (the
  // application never stops); replay those edges into the golden model
  // with the inputs held at their previous values.
  golden_.clock(sim_->edges_seen(domain) - golden_edges_);

  drive(inputs);
  golden_.settle();

  // Settle before the edge, cross it, and let clk-to-q + routing settle.
  // Sampling at half a period tolerates the longer paths produced by
  // relocations to distant CLBs while leaving the other half period for
  // the next cycle's inputs to propagate.
  const SimTime edge = sim_->next_edge(domain, sim_->now() + SimTime::ps(1));
  const SimTime margin = edge - sim_->now();
  sim_->run_until(edge - SimTime::ps(1));
  sim_->run_until(edge + period / 2);
  golden_.clock();
  golden_edges_ = sim_->edges_seen(domain);

  ++cycles_;
  return compare("post-edge", margin);
}

CircuitHarness::CycleResult CircuitHarness::step_random(Rng& rng) {
  std::vector<bool> inputs;
  inputs.reserve(nl_->inputs().size());
  for (std::size_t i = 0; i < nl_->inputs().size(); ++i)
    inputs.push_back(rng.next_bool());
  return step(inputs);
}

CircuitHarness::CycleResult CircuitHarness::settle_step(
    const std::vector<bool>& inputs) {
  drive(inputs);
  golden_.settle();
  // Generous settle horizon: deep latch pipelines ripple stage by stage.
  sim_->run_until(sim_->now() + SimTime::ns(200));
  ++cycles_;
  return compare("settled", std::nullopt);
}

}  // namespace relogic::sim
