// The serving benchmark's answer checker.
//
// It holds its own copy of the served corpus: a BruteForceIndex (the
// repository's exhaustive-scan oracle) plus a document map. The benchmark
// feeds it the same documents and the same writes, in the same order, as
// the served index, so at any moment it can say what the right answer is.
// Nothing here compares against a stored copy of an earlier run's output.
//
// Two kinds of check:
//  - CheckShape: properties every response must have, cheap enough to run
//    on every timed response. At most k results, scores non-increasing,
//    exact ties ordered by increasing doc id, every result a live
//    document, and under AND every result containing all query terms.
//  - CheckAgainstOracle: the shape checks plus equality with the oracle's
//    top-k: the same doc ids in the same order (tie order included) and
//    the same scores up to floating-point rounding.
//
// Every check returns an empty string when the answer is right and a
// one-line description of the first defect otherwise.

#ifndef PERFBENCH_ORACLE_CHECK_H_
#define PERFBENCH_ORACLE_CHECK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/brute_force.h"
#include "model/query.h"

namespace perfbench {

/// Score tolerance against the oracle: the engines sum the same float
/// weights in a different order, so scores may differ in the last bits.
inline constexpr double kScoreEpsilon = 1e-9;

class AnswerChecker {
 public:
  explicit AnswerChecker(const i3::Rect& space) : oracle_(space) {}

  /// Mirror one write of the served index.
  i3::Status Insert(const i3::SpatialDocument& doc);
  i3::Status Delete(const i3::SpatialDocument& doc);
  i3::Status Update(const i3::SpatialDocument& old_doc,
                    const i3::SpatialDocument& new_doc);

  /// The oracle's answer for `q` on the current corpus.
  std::vector<i3::ScoredDoc> Expected(const i3::Query& q, double alpha);

  std::string CheckShape(const i3::Query& q,
                         const std::vector<i3::ScoredDoc>& got) const;

  std::string CheckAgainstOracle(const i3::Query& q, double alpha,
                                 const std::vector<i3::ScoredDoc>& got);

  /// Position-by-position comparison: same length, same doc ids, scores
  /// within `epsilon` (0 demands bit-identical scores, as a warm repeat of
  /// a cold answer must be).
  static std::string CompareAnswers(const std::vector<i3::ScoredDoc>& got,
                                    const std::vector<i3::ScoredDoc>& want,
                                    double epsilon);

 private:
  i3::BruteForceIndex oracle_;
  std::unordered_map<i3::DocId, i3::SpatialDocument> docs_;
};

/// Tally of checks made during a run: the count and the first failure.
struct CheckLedger {
  uint64_t checks = 0;
  uint64_t failures = 0;
  std::string first_failure;

  /// Records one check; `error` empty means it passed.
  void Record(const char* what, const std::string& error) {
    ++checks;
    if (error.empty()) return;
    if (failures++ == 0) first_failure = std::string(what) + ": " + error;
  }
  bool ok() const { return failures == 0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_CHECK_H_
