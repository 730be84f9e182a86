// Forward / backward node-attribute affinity (Section 2.2) shared
// definitions, plus the exact dense reference implementation that tests and
// the Table 2 running-example bench validate APMI against. The pipeline
// itself only ever holds AffinitySlabs; AffinityMatrices is the return type
// of the dense oracles below.
#pragma once

#include <cstdint>

#include "src/common/status.h"
#include "src/graph/graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/factor_slab.h"

namespace pane {

/// \brief The pair (F, B) of n x d affinity matrices, as the dense oracles
/// (ExactAffinity, SpmiFromProbabilities) return them.
struct AffinityMatrices {
  DenseMatrix forward;   // F (or its approximation F')
  DenseMatrix backward;  // B (or B')
};

/// \brief The pair (F', B') as FactorSlabs — the shape every affinity
/// producer and consumer uses. In RAM or spilled to memory-mapped files, in
/// which case consumers stream row chunks. See src/matrix/factor_slab.h.
struct AffinitySlabs {
  FactorSlab forward;
  FactorSlab backward;
};

/// \brief Iteration count t = ceil(log(eps) / log(1 - alpha) - 1), clamped
/// to >= 1 (Algorithm 1, line 1). Guarantees (1 - alpha)^(t+1) <= eps.
int ComputeIterationCount(double epsilon, double alpha);

/// \brief Probability matrices P_f, P_b of Equation (6), truncated at t.
struct ProbabilityMatrices {
  DenseMatrix pf;  // n x d, P_f^(t)
  DenseMatrix pb;  // n x d, P_b^(t)
};

/// \brief Turns probability matrices into SPMI affinity (Equations 2-3 /
/// lines 6-8 of Algorithm 2): column-normalize pf and row-normalize pb,
/// then F' = ln(n * pf_hat + 1), B' = ln(d * pb_hat + 1).
///
/// Natural log is used; the base only scales the objective uniformly.
AffinityMatrices SpmiFromProbabilities(const ProbabilityMatrices& probs);

/// \brief Exact affinity via dense power-series evaluation: Equation (5)
/// truncated at machine precision. O(n^2 d) time, O(n^2) memory — reference
/// implementation for small graphs (tests, Table 2), written against dense
/// arithmetic so it shares no kernels with the CSR production path.
Result<AffinityMatrices> ExactAffinity(const AttributedGraph& graph,
                                       double alpha);

/// \brief Exact truncated probability matrices (same dense path), exposed so
/// tests can check the Lemma 3.1 bounds at a specific t.
Result<ProbabilityMatrices> ExactProbabilities(const AttributedGraph& graph,
                                               double alpha, int t);

}  // namespace pane
