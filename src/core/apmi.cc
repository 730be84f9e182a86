#include "src/core/apmi.h"

#include "src/matrix/spmm.h"

namespace pane {
namespace {

Status ValidateInputs(const ApmiInputs& in) {
  if (in.p == nullptr || in.p_transposed == nullptr || in.r == nullptr) {
    return Status::InvalidArgument("APMI inputs must be non-null");
  }
  if (in.p->rows() != in.p->cols()) {
    return Status::InvalidArgument("P must be square");
  }
  if (in.p->rows() != in.r->rows()) {
    return Status::InvalidArgument("P and R row counts differ");
  }
  if (in.alpha <= 0.0 || in.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (in.t < 1) return Status::InvalidArgument("t must be >= 1");
  return Status::OK();
}

// Reference path: acc = alpha * sum_{l=0..t} (1-alpha)^l M^l R0 with dense
// term / next / acc intermediates — the memory shape the panel-streamed
// engine exists to avoid. Kept for ApmiProbabilities (Lemma 3.1 tests).
void TruncatedSeries(const CsrMatrix& m, const CsrMatrix& r0, double alpha,
                     int t, DenseMatrix* acc) {
  DenseMatrix term = r0.ToDense();
  acc->Resize(term.rows(), term.cols());
  acc->Axpy(alpha, term);
  DenseMatrix next;
  for (int l = 1; l <= t; ++l) {
    SpMMAddScaled(m, term, 1.0 - alpha, term, 0.0, &next);
    std::swap(term, next);
    acc->Axpy(alpha, term);
  }
}

}  // namespace

Result<ProbabilityMatrices> ApmiProbabilities(const ApmiInputs& inputs) {
  PANE_RETURN_NOT_OK(ValidateInputs(inputs));
  const CsrMatrix rr = inputs.r->RowNormalized();
  const CsrMatrix rc = inputs.r->ColNormalized();
  ProbabilityMatrices probs;
  TruncatedSeries(*inputs.p, rr, inputs.alpha, inputs.t, &probs.pf);
  TruncatedSeries(*inputs.p_transposed, rc, inputs.alpha, inputs.t, &probs.pb);
  return probs;
}

}  // namespace pane
