// APMI (Algorithm 2): deterministic linear-time approximation of the
// forward / backward affinity matrices. Evaluates the truncated series of
// Equation (6),
//   P_f^(t) = alpha * sum_{l=0..t} (1-alpha)^l P^l  Rr,
//   P_b^(t) = alpha * sum_{l=0..t} (1-alpha)^l P^T^l Rc,
// then applies the SPMI transform (Equation 7). Error bound: Lemma 3.1.
//
// Production runs APMI (and PAPMI, Algorithm 6) through the panel-streamed
// affinity engine (src/core/affinity_engine.h), which fuses the series and
// the SPMI transform into FactorSlabs under a memory budget.
// ApmiProbabilities() here keeps the original unfused dense-intermediate
// evaluation as the independent reference the Lemma 3.1 tests and the
// engine's bitwise-equality tests compare against.
#pragma once

#include "src/common/status.h"
#include "src/core/affinity.h"
#include "src/matrix/csr_matrix.h"

namespace pane {

struct ApmiInputs {
  /// Random-walk matrix P = D^-1 A (n x n, row-stochastic).
  const CsrMatrix* p = nullptr;
  /// P^T, prebuilt (backward iterations).
  const CsrMatrix* p_transposed = nullptr;
  /// Attribute matrix R (n x d).
  const CsrMatrix* r = nullptr;
  double alpha = 0.5;
  int t = 5;
};

/// \brief The truncated probability matrices before the SPMI transform
/// (Algorithm 2 up to line 5); exposed for the Lemma 3.1 tests. This is the
/// historical unfused path, kept as an independent reference for the
/// engine's bitwise-equality tests.
Result<ProbabilityMatrices> ApmiProbabilities(const ApmiInputs& inputs);

}  // namespace pane
