// Request-scoped query introspection (the EXPLAIN machinery): a
// QueryStats passed into SelectionEngine::SelectTopK collects everything
// one crowd-selection query did — which snapshot version it scanned,
// whether the fold-in cache hit, how many CG iterations the fold-in
// cost, per-stage latencies, and the per-candidate score decomposition
// w_i . c_j for the returned top-k with ranking margins.
//
// Collection is strictly additive: a query run with stats attached
// returns the byte-identical ranking of the same query without (the
// engine scans one extra rank internally to learn the cutoff score, and
// deterministic tie-breaking makes the prefix identical).
#ifndef CROWDSELECT_SERVE_QUERY_STATS_H_
#define CROWDSELECT_SERVE_QUERY_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crowddb/selector_interface.h"

namespace crowdselect::serve {

/// One returned candidate with its score decomposed per latent category.
struct CandidateBreakdown {
  WorkerId worker = kInvalidWorkerId;
  double score = 0.0;
  /// terms[d] = w_i[d] * c_j[d]; sums to `score` (up to rounding).
  std::vector<double> terms;
  /// Lead over the next rank (the cutoff score for the last kept rank,
  /// when a cutoff is known; 0 otherwise).
  double margin = 0.0;
};

/// How the TaskTypeRouter (serve/router.h) dispatched one query. Empty
/// (`routed == false`) for queries served by a single model directly.
struct RouteStats {
  bool routed = false;
  std::string mode;          ///< "fixed" or "similarity".
  std::string chosen_model;  ///< Label of the member that served ("tdpm:0").
  /// Cosine similarity of the task against the chosen model's centroid,
  /// and its lead over the runner-up centroid.
  double similarity = 0.0;
  double margin = 0.0;
  /// True when the task matched no centroid (empty bag / zero overlap)
  /// and the router fell back to its fixed default model.
  bool fallback = false;
};

/// Everything the serving path recorded for one query.
struct QueryStats {
  // --- Serving model -------------------------------------------------------
  /// Model that ranked this query: "tdpm" from the engine, or the
  /// router member's label ("tdpm:0", ...) when a router dispatched it.
  std::string serving_model;
  /// Router dispatch decision, when a router sat in front of the model.
  RouteStats route;

  // --- Plan shape ----------------------------------------------------------
  uint64_t snapshot_version = 0;
  size_t num_workers = 0;     ///< Snapshot rows.
  size_t num_categories = 0;  ///< Latent dimensionality K.
  size_t num_candidates = 0;  ///< Validated candidate-set size.
  size_t k = 0;               ///< Requested ranks.
  bool parallel_scan = false; ///< Blocked pool scan vs. inline scan.

  // --- Score kernel --------------------------------------------------------
  /// ScoreKernel the engine dispatched at construction ("scalar" or
  /// "avx2"). Set for every snapshot-backed query, including sparse ones
  /// (the sparse path scores through the kernel's lane chain, so the id
  /// still names the arithmetic that ran).
  std::string kernel_id;

  // --- Fold-in -------------------------------------------------------------
  bool used_foldin = false;   ///< False for RankByCategory-style queries.
  bool cache_hit = false;
  /// CG cost of the solve that produced the served posterior. On a cache
  /// hit this is the *cached entry's* original cost (nothing was solved
  /// for this query); `cache_hit` disambiguates.
  int cg_iterations = 0;
  double cg_residual = 0.0;
  bool sampled_category = false;  ///< c_j sampled vs. posterior mean.

  // --- Latencies (microseconds) -------------------------------------------
  double foldin_us = 0.0;
  double scan_us = 0.0;
  double total_us = 0.0;

  // --- Ranking -------------------------------------------------------------
  /// The returned ranking, decomposed. breakdown.size() == result size.
  std::vector<CandidateBreakdown> breakdown;
  /// Score of the best candidate *not* selected (rank k+1), when the
  /// candidate set had one; the last kept rank's margin is measured
  /// against it.
  double cutoff_score = 0.0;
  bool has_cutoff = false;

  /// Machine-readable form (one self-contained JSON document).
  std::string ToJson() const;
  /// Human-readable EXPLAIN plan, `top_terms` strongest per-category
  /// contributions listed per candidate (0 = none).
  std::string ToText(size_t top_terms = 3) const;
};

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_QUERY_STATS_H_
