// The query shapes the two serving workloads (serve_routed, ingest_serve)
// send, one per Table 5 category plus TOPK, and the client-side
// diagnostics compute that is part of each op.

#ifndef PERFBENCH_DRIVER_SERVE_KINDS_H_
#define PERFBENCH_DRIVER_SERVE_KINDS_H_

#include <cstdint>

#include "common.h"
#include "core/mistique.h"
#include "diagnostics/queries.h"

namespace perfbench {
namespace serve {

/// POINTQ: a few rows of one column. TOPK: one whole column, TopK on the
/// client. SCAN: a packed POINTQ predicate scan. ROW: a few rows of every
/// column. VIS: the whole intermediate, column means on the client.
enum Kind : uint32_t { kPoint, kTopK, kScan, kRow, kVis, kNumKinds };

inline const char* const kKindNames[] = {"POINTQ", "TOPK", "SCAN", "ROW",
                                         "VIS"};
inline const uint32_t kCategory[] = {kFcfr, kFcfr, kFcmr, kMcfr, kMcmr};
/// Span of each kind's diagnostics compute ("" = none).
inline const char* const kDiagSpan[] = {"", "diagnostics.topk", "",
                                        "diagnostics.row_diff",
                                        "diagnostics.vis"};

/// The client-side diagnostics compute on a fetched result.
inline void Diagnose(Kind kind, const mistique::FetchResult& r) {
  namespace dq = mistique::diagnostics;
  if (kind == kTopK) (void)dq::TopK(r.columns[0], 10);
  if (kind == kRow) (void)dq::RowDiff(r.columns, 0, 1);
  if (kind == kVis) (void)dq::MeanPerColumn(r.columns);
}

}  // namespace serve
}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SERVE_KINDS_H_
