#include "linalg/gradient_check.h"

#include <gtest/gtest.h>

#include <cmath>

namespace crowdselect {
namespace {

TEST(GradientCheckTest, DetectsCorrectGradient) {
  auto f = [](const Vector& x, Vector* grad) {
    (*grad)[0] = std::cos(x[0]);
    (*grad)[1] = 2.0 * x[1];
    return std::sin(x[0]) + x[1] * x[1];
  };
  auto report = CheckGradient(f, Vector{0.3, -1.2});
  EXPECT_LT(report.max_rel_error, 1e-6);
}

TEST(GradientCheckTest, DetectsWrongGradient) {
  auto f = [](const Vector& x, Vector* grad) {
    (*grad)[0] = 1.0;  // Wrong: true gradient is 2x.
    return x[0] * x[0];
  };
  auto report = CheckGradient(f, Vector{2.0});
  EXPECT_GT(report.max_rel_error, 0.1);
}

}  // namespace
}  // namespace crowdselect
