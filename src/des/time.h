// Virtual time for the discrete-event simulation.
//
// Integer nanoseconds everywhere, behind the strong types of
// core/units.h: SimTime is an instant (ns since simulation start),
// Duration a span, and only dimensionally valid combinations compile.
// Additions are exact, event ordering is total, and runs are
// bit-reproducible. Floating-point seconds appear only at the cost-model
// boundary, through the Duration/SimTime converters (from_micros,
// to_seconds, ...), which round half away from zero (symmetric for
// negative spans) and saturate at kNever so the sentinel survives a
// to/from-micros round trip.
#pragma once

#include "core/units.h"

namespace des {

using units::Duration;
using units::SimTime;

inline constexpr SimTime kNever = units::kNever;
inline constexpr Duration kForever = units::kForever;

}  // namespace des
