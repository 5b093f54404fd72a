#include "serve/query_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/json_escape.h"
#include "util/string_util.h"

namespace crowdselect::serve {

namespace {

using obs::JsonEscape;

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string QueryStats::ToJson() const {
  std::string out = "{\n";
  out += "  \"model\": {\"id\": \"" + JsonEscape(serving_model) + "\"},\n";
  if (route.routed) {
    out += "  \"route\": {\"mode\": \"" + JsonEscape(route.mode) +
           "\", \"chosen_model\": \"" + JsonEscape(route.chosen_model) +
           "\", \"similarity\": " + Num(route.similarity) +
           ", \"margin\": " + Num(route.margin) +
           ", \"fallback\": " + Bool(route.fallback) + "},\n";
  } else {
    out += "  \"route\": null,\n";
  }
  out += "  \"snapshot\": {\"version\": " + std::to_string(snapshot_version) +
         ", \"num_workers\": " + std::to_string(num_workers) +
         ", \"num_categories\": " + std::to_string(num_categories) + "},\n";
  out += "  \"query\": {\"num_candidates\": " + std::to_string(num_candidates) +
         ", \"k\": " + std::to_string(k) +
         ", \"parallel_scan\": " + Bool(parallel_scan) + "},\n";
  if (!kernel_id.empty()) {
    out += "  \"kernel\": {\"id\": \"" + JsonEscape(kernel_id) + "\"},\n";
  } else {
    out += "  \"kernel\": null,\n";
  }
  out += "  \"foldin\": {\"used\": " + std::string(Bool(used_foldin)) +
         ", \"cache_hit\": " + Bool(cache_hit) +
         ", \"cg_iterations\": " + std::to_string(cg_iterations) +
         ", \"converged\": " + Bool(converged) +
         ", \"cg_residual\": " + Num(cg_residual) +
         ", \"sampled_category\": " + Bool(sampled_category) + "},\n";
  out += "  \"latency_us\": {\"foldin\": " + Num(foldin_us) +
         ", \"scan\": " + Num(scan_us) + ", \"total\": " + Num(total_us) +
         "},\n";
  out += "  \"ranking\": [";
  for (size_t i = 0; i < breakdown.size(); ++i) {
    const CandidateBreakdown& c = breakdown[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rank\": " + std::to_string(i + 1) +
           ", \"worker\": " + std::to_string(c.worker) +
           ", \"score\": " + Num(c.score) + ", \"margin\": " + Num(c.margin) +
           ", \"terms\": [";
    for (size_t d = 0; d < c.terms.size(); ++d) {
      if (d > 0) out += ", ";
      out += Num(c.terms[d]);
    }
    out += "]}";
  }
  out += breakdown.empty() ? "],\n" : "\n  ],\n";
  out += "  \"cutoff\": ";
  out += has_cutoff ? ("{\"score\": " + Num(cutoff_score) + "}") : "null";
  out += "\n}\n";
  return out;
}

std::string QueryStats::ToText(size_t top_terms) const {
  std::string out = "EXPLAIN crowd-selection query\n";
  if (!serving_model.empty()) {
    out += StringPrintf("  model       %s\n", serving_model.c_str());
  }
  if (route.routed) {
    if (route.fallback) {
      out += StringPrintf(
          "  route       %s -> %s (fallback: no centroid overlap)\n",
          route.mode.c_str(), route.chosen_model.c_str());
    } else {
      out += StringPrintf(
          "  route       %s -> %s (similarity %.4f, margin %.4f)\n",
          route.mode.c_str(), route.chosen_model.c_str(), route.similarity,
          route.margin);
    }
  }
  out += StringPrintf("  snapshot    version %llu (%zu workers x %zu categories)\n",
                      static_cast<unsigned long long>(snapshot_version),
                      num_workers, num_categories);
  out += StringPrintf("  candidates  %zu validated, k=%zu\n", num_candidates, k);
  if (used_foldin) {
    out += StringPrintf(
        "  fold-in     cache %s; Newton %d iterations, residual %.3g, %s; "
        "category = %s; %.1f us\n",
        cache_hit ? "HIT (cost below is the cached solve's)" : "MISS",
        cg_iterations, cg_residual, converged ? "converged" : "NOT CONVERGED",
        sampled_category ? "sampled" : "posterior mean", foldin_us);
  } else {
    out += "  fold-in     skipped (caller supplied the category vector)\n";
  }
  out += StringPrintf("  scan        %s over %zu candidates; %.1f us\n",
                      parallel_scan ? "blocked parallel" : "inline",
                      num_candidates, scan_us);
  if (!kernel_id.empty()) {
    out += StringPrintf("  kernel      kernel=%s\n", kernel_id.c_str());
  }
  out += StringPrintf("  total       %.1f us\n", total_us);
  out += "  ranking (score = w_i . c_j):\n";
  for (size_t i = 0; i < breakdown.size(); ++i) {
    const CandidateBreakdown& c = breakdown[i];
    out += StringPrintf("    #%-3zu worker %-8u score %+.4f  margin %.4f",
                        i + 1, c.worker, c.score, c.margin);
    if (top_terms > 0 && !c.terms.empty()) {
      // Strongest per-category contributions, by absolute value.
      std::vector<size_t> order(c.terms.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::fabs(c.terms[a]) > std::fabs(c.terms[b]);
      });
      out += "  [";
      const size_t n = std::min(top_terms, order.size());
      for (size_t t = 0; t < n; ++t) {
        if (t > 0) out += ", ";
        out += StringPrintf("c%zu:%+.3f", order[t], c.terms[order[t]]);
      }
      out += "]";
    }
    out += "\n";
  }
  if (has_cutoff) {
    out += StringPrintf("  cutoff      best unselected candidate scored %+.4f\n",
                        cutoff_score);
  } else if (breakdown.size() >= num_candidates) {
    out += "  cutoff      none (every candidate was selected)\n";
  }
  return out;
}

}  // namespace crowdselect::serve
