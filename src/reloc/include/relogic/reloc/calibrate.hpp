// Calibration of the relocation cost model from the frame-accurate plane.
//
// ROADMAP leftover: the reloc::CostParams column counts (comb/ff/gated/
// latch_column_writes) were measured once in the column regime on the
// XCV200 and hard-coded as defaults. This helper re-derives them from the
// frame-accurate configuration plane: it drives the real RelocationEngine
// through canonical minimal fixtures on a scratch device and reads the
// per-case column-transaction counts off the controller's telemetry
// (RelocationReport::columns_touched), so the numbers track the engine's
// actual op sequences — two-phase copy for combinational cells, the state
// acquisition wait for free-running FFs, the Fig. 3/4 auxiliary relocation
// circuit for gated-clock FFs and latches — instead of a historical
// measurement.
//
// The CostParams defaults intentionally stay at the legacy measurement:
// the fig4/fig5/fig6 reproduction benches and the schedulers price with
// the defaults and their outputs are pinned. The regression test
// (tests/calibration_test.cpp) pins the calibrated values instead, so an
// engine or router change that shifts the real column footprint fails the
// test rather than silently skewing the cost model.
#pragma once

#include "relogic/config/port.hpp"
#include "relogic/fabric/device.hpp"
#include "relogic/reloc/cost.hpp"

namespace relogic::reloc {

/// Per-case column-write counts measured from the frame-accurate plane.
struct CalibratedColumns {
  int comb_column_writes = 0;
  int ff_column_writes = 0;
  int gated_column_writes = 0;
  int latch_column_writes = 0;

  /// `base` with the four measured column counts substituted in (wait
  /// cycles, clock period and the frame-regime knobs are left untouched).
  CostParams apply_to(CostParams base = {}) const;
};

/// Measures the four per-case column counts on `geom` in the column-write
/// regime (the regime the counts price): implements a canonical minimal
/// fixture per storage case, relocates each matching cell one CLB below
/// its region through the real engine, and averages the columns each
/// relocation's transactions touched. Deterministic — fixed fixtures and
/// fixed destinations make the result a pure function of the geometry and
/// the engine code.
/// `geom` must be large enough to host the fixtures clear of the border
/// (any family preset works; the paper's device is the XCV200).
CalibratedColumns calibrate_cost_params(const fabric::DeviceGeometry& geom,
                                        const config::ConfigPort& port);

}  // namespace relogic::reloc
