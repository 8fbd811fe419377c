#include "oracle_check.h"

#include <cmath>
#include <sstream>

namespace perfbench {

using i3::DocId;
using i3::Query;
using i3::ScoredDoc;
using i3::SpatialDocument;
using i3::Status;

Status AnswerChecker::Insert(const SpatialDocument& doc) {
  Status st = oracle_.Insert(doc);
  if (st.ok()) docs_[doc.id] = doc;
  return st;
}

Status AnswerChecker::Delete(const SpatialDocument& doc) {
  Status st = oracle_.Delete(doc);
  if (st.ok()) docs_.erase(doc.id);
  return st;
}

Status AnswerChecker::Update(const SpatialDocument& old_doc,
                             const SpatialDocument& new_doc) {
  Status st = Delete(old_doc);
  if (!st.ok()) return st;
  return Insert(new_doc);
}

std::vector<ScoredDoc> AnswerChecker::Expected(const Query& q, double alpha) {
  auto want = oracle_.Search(q, alpha);
  return want.ok() ? want.MoveValue() : std::vector<ScoredDoc>{};
}

std::string AnswerChecker::CheckShape(const Query& q,
                                      const std::vector<ScoredDoc>& got) const {
  std::ostringstream err;
  if (got.size() > q.k) {
    err << got.size() << " results for k=" << q.k;
    return err.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const ScoredDoc& d = got[i];
    if (i > 0) {
      const ScoredDoc& prev = got[i - 1];
      if (d.score > prev.score) {
        err << "score rises at rank " << i << " (" << prev.score << " then "
            << d.score << ")";
        return err.str();
      }
      if (d.score == prev.score && d.doc <= prev.doc) {
        err << "tie at rank " << i << " not ordered by doc id (" << prev.doc
            << " before " << d.doc << ")";
        return err.str();
      }
    }
    auto it = docs_.find(d.doc);
    if (it == docs_.end()) {
      err << "doc " << d.doc << " at rank " << i << " is not live";
      return err.str();
    }
    if (q.semantics == i3::Semantics::kAnd) {
      for (i3::TermId t : q.terms) {
        if (!it->second.Contains(t)) {
          err << "AND result doc " << d.doc << " lacks term " << t;
          return err.str();
        }
      }
    }
  }
  return std::string();
}

std::string AnswerChecker::CompareAnswers(const std::vector<ScoredDoc>& got,
                                          const std::vector<ScoredDoc>& want,
                                          double epsilon) {
  std::ostringstream err;
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i].doc != want[i].doc) {
      err << "rank " << i << ": doc " << got[i].doc << ", expected "
          << want[i].doc;
      return err.str();
    }
    if (std::fabs(got[i].score - want[i].score) > epsilon) {
      err.precision(17);
      err << "rank " << i << " doc " << got[i].doc << ": score "
          << got[i].score << ", expected " << want[i].score;
      return err.str();
    }
  }
  if (got.size() != want.size()) {
    err << got.size() << " results, expected " << want.size();
    return err.str();
  }
  return std::string();
}

std::string AnswerChecker::CheckAgainstOracle(
    const Query& q, double alpha, const std::vector<ScoredDoc>& got) {
  std::string shape = CheckShape(q, got);
  if (!shape.empty()) return shape;
  return CompareAnswers(got, Expected(q, alpha), kScoreEpsilon);
}

}  // namespace perfbench
