// Net surgery: computing the minimal edge sets to graft and prune when a
// net's endpoints move.
//
// During a relocation a net temporarily carries both the original and the
// replica endpoint (paralleled paths / paralleled sources, Figs. 2 and 5).
// When the original is finally disconnected, exactly the edges that served
// only the original must be removed — never an edge still carrying signal
// to a surviving sink. These helpers compute those sets over the net's
// fabric::TreeIndex; they never touch the fabric themselves (the
// relocation engine folds the results into ConfigOps so the changes are
// charged to the configuration port).
#pragma once

#include <vector>

#include "relogic/fabric/fabric.hpp"

namespace relogic::reloc {

/// Edges of `net` that lie on some path from one of `sources_keep` to one
/// of `sinks_keep`, in tree edge order.
std::vector<fabric::RouteEdge> needed_edges(
    const fabric::Fabric& fabric, fabric::NetId net,
    const std::vector<fabric::NodeId>& sources_keep,
    const std::vector<fabric::NodeId>& sinks_keep);

/// The complement: edges no longer needed once the `dropped` sources and
/// sinks leave `net`, in tree edge order. Drop every sink that leaves
/// together in one call: per-sink pruning would either leak a segment the
/// branches share or, combined with blind edge removal, orphan a
/// surviving branch.
std::vector<fabric::RouteEdge> prune_for_removal(
    const fabric::Fabric& fabric, fabric::NetId net,
    const std::vector<fabric::NodeId>& dropped);

}  // namespace relogic::reloc
