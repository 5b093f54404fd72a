// Central-difference gradient checking; used by the test suite to verify the
// re-derived analytic gradients of the evidence bound (see DESIGN.md §1,
// "Corrections to the paper's appendix").
#ifndef CROWDSELECT_LINALG_GRADIENT_CHECK_H_
#define CROWDSELECT_LINALG_GRADIENT_CHECK_H_

#include <functional>

#include "linalg/vector.h"

namespace crowdselect {

/// Objective interface: evaluate f(x) and its gradient at x.
/// Returns the function value; writes the gradient into *grad
/// (pre-sized to x.size()).
using ObjectiveFn = std::function<double(const Vector& x, Vector* grad)>;

struct GradientCheckReport {
  /// Largest absolute difference between the analytic and numeric gradient.
  double max_abs_error = 0.0;
  /// Largest relative difference, max over coordinates of
  /// |g_a - g_n| / max(1, |g_a|, |g_n|).
  double max_rel_error = 0.0;
  /// Coordinate where max_rel_error occurred.
  size_t worst_coordinate = 0;
};

/// Compares the analytic gradient of `f` at `x` against a central
/// difference with step `h`.
GradientCheckReport CheckGradient(const ObjectiveFn& f, const Vector& x,
                                  double h = 1e-5);

}  // namespace crowdselect

#endif  // CROWDSELECT_LINALG_GRADIENT_CHECK_H_
