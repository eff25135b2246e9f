// The paper report: every figure and table of the paper, in paper order,
// rendered from the inputs one validation run built and checked — the §2/§3
// FullReport, the §4 fleet result and the two Fig 13 flows. It regenerates
// nothing, so each number it prints is the one the FigureChecks graded.
//
// Each section starts with a "[NAME] caption" line (NAME is "§2.2",
// "Fig 1", ..., "Table 4") and holds its `quantity | paper | measured`
// rows, its series, and the verdict of every FigureCheck it owns; each
// check id appears in exactly one section. Where the paper states a bound
// or an ordering rather than a number, the paper column prints the claim.
// Wall-clock values appear only in the two closing "---" lines, so the
// sections are byte-identical at every thread count and execution mode.
#pragma once

#include <string>

#include "validate/validator.h"

namespace mcloud::validate {

/// The report of `run`, which must carry its inputs (RunValidation keeps
/// them; a seed sweep does not).
[[nodiscard]] std::string RenderReport(const ValidationRun& run);

}  // namespace mcloud::validate
