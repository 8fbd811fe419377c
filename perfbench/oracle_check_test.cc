// Test of the benchmark's answer checker: right answers pass, and each
// kind of wrong answer the benchmark must catch is rejected -- a swapped
// doc, a dropped doc, a misordered tie, a stale (pre-write) answer, and
// responses that break the per-response properties.
//
//   ctest --test-dir .bench_build/perfbench      (or run the binary)
//
// Exits 0 when every case behaves, 1 otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "i3/i3_index.h"
#include "oracle_check.h"

namespace perfbench {
namespace {

using i3::Query;
using i3::ScoredDoc;
using i3::Semantics;
using i3::SpatialDocument;

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (cond) {
    std::printf("ok    %s\n", what);
  } else {
    std::printf("FAIL  %s\n", what);
    ++g_failures;
  }
}

void ExpectRejected(const std::string& error, const char* what) {
  Expect(!error.empty(), what);
  if (!error.empty()) std::printf("        (%s)\n", error.c_str());
}

constexpr i3::Rect kSpace{0.0, 0.0, 100.0, 100.0};

std::vector<SpatialDocument> MakeCorpus() {
  i3::Rng rng(7);
  std::vector<SpatialDocument> docs;
  for (i3::DocId id = 0; id < 400; ++id) {
    SpatialDocument d;
    d.id = id;
    d.location = {rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)};
    for (i3::TermId t = 0; t < 12; ++t) {
      if (rng.Chance(0.3)) {
        d.terms.push_back(
            {t, static_cast<float>(rng.UniformDouble(0.1, 1.0))});
      }
    }
    if (d.terms.empty()) d.terms.push_back({0, 0.5f});
    docs.push_back(std::move(d));
  }
  // Two documents identical in everything but their id: every query
  // that reaches them gives them the same score.
  for (i3::DocId id : {900u, 901u}) {
    SpatialDocument twin;
    twin.id = id;
    twin.location = {50.0, 50.0};
    twin.terms = {{20, 0.9f}, {21, 0.9f}};
    docs.push_back(twin);
  }
  return docs;
}

Query MakeQuery(std::vector<i3::TermId> terms, Semantics sem, double x,
                double y) {
  Query q;
  q.location = {x, y};
  q.terms = std::move(terms);
  q.k = 10;
  q.semantics = sem;
  q.Normalize();
  return q;
}

int Main() {
  i3::I3Options opt;
  opt.space = kSpace;
  i3::I3Index index(opt);
  AnswerChecker checker(kSpace);
  const std::vector<SpatialDocument> corpus = MakeCorpus();
  auto doc_of = [&](i3::DocId id) {
    for (const SpatialDocument& d : corpus) {
      if (d.id == id) return d;
    }
    return SpatialDocument{};
  };
  for (const SpatialDocument& d : corpus) {
    if (!index.Insert(d).ok() || !checker.Insert(d).ok()) {
      std::printf("FAIL  corpus insert of doc %u\n", d.id);
      return 1;
    }
  }
  const double alpha = 0.5;
  auto search = [&](const Query& q) {
    auto r = index.Search(q, alpha);
    return r.ok() ? r.MoveValue() : std::vector<ScoredDoc>{};
  };

  // Right answers pass, under both semantics.
  bool all_pass = true;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (i3::TermId a = 0; a < 6; ++a) {
      Query q = MakeQuery({a, static_cast<i3::TermId>(a + 3)}, sem,
                          10.0 * a, 90.0 - 10.0 * a);
      if (!checker.CheckAgainstOracle(q, alpha, search(q)).empty()) {
        all_pass = false;
      }
    }
  }
  Expect(all_pass, "engine answers equal the oracle");

  const Query q = MakeQuery({1, 4}, Semantics::kOr, 30.0, 60.0);
  const std::vector<ScoredDoc> right = search(q);
  Expect(right.size() == q.k, "probe query fills k results");
  Expect(checker.CheckAgainstOracle(q, alpha, right).empty(),
         "probe answer passes");

  // A swapped doc: a live document that is not in the answer takes the
  // place of rank 3, keeping that rank's score.
  {
    std::vector<ScoredDoc> wrong = right;
    i3::DocId outsider = 0;
    for (bool in_answer = true; in_answer; ++outsider) {
      in_answer = false;
      for (const ScoredDoc& d : right) in_answer |= d.doc == outsider;
      if (!in_answer) break;
    }
    wrong[3].doc = outsider;
    ExpectRejected(checker.CheckAgainstOracle(q, alpha, wrong),
                   "swapped doc is rejected");
  }
  // A dropped doc, from the middle and from the end.
  {
    std::vector<ScoredDoc> wrong = right;
    wrong.erase(wrong.begin() + 4);
    ExpectRejected(checker.CheckAgainstOracle(q, alpha, wrong),
                   "dropped middle doc is rejected");
    wrong = right;
    wrong.pop_back();
    ExpectRejected(checker.CheckAgainstOracle(q, alpha, wrong),
                   "dropped last doc is rejected");
  }
  // A misordered tie: the twins score the same, so the lower id must
  // come first.
  {
    const Query tie_q = MakeQuery({20, 21}, Semantics::kAnd, 50.0, 50.0);
    const std::vector<ScoredDoc> tie = search(tie_q);
    Expect(tie.size() == 2 && tie[0].doc == 900 && tie[1].doc == 901 &&
               tie[0].score == tie[1].score,
           "twins tie, lower id first");
    Expect(checker.CheckAgainstOracle(tie_q, alpha, tie).empty(),
           "tie answer passes");
    std::vector<ScoredDoc> wrong = tie;
    if (wrong.size() == 2) std::swap(wrong[0], wrong[1]);
    ExpectRejected(checker.CheckShape(tie_q, wrong),
                   "misordered tie fails the shape check");
    ExpectRejected(checker.CheckAgainstOracle(tie_q, alpha, wrong),
                   "misordered tie is rejected");
  }
  // Per-response properties, without the oracle.
  {
    std::vector<ScoredDoc> wrong = right;
    wrong.push_back(right.back());
    wrong.back().doc = 999;
    ExpectRejected(checker.CheckShape(q, wrong), "k+1 results fail");
    wrong = right;
    std::swap(wrong[0], wrong[5]);
    ExpectRejected(checker.CheckShape(q, wrong), "rising scores fail");
    // A live doc with term 1 but not term 4, offered as the answer to
    // the AND query over both.
    const Query and_q = MakeQuery({1, 4}, Semantics::kAnd, 30.0, 60.0);
    std::vector<ScoredDoc> lacking;
    for (const SpatialDocument& doc : corpus) {
      if (doc.Contains(1) && !doc.Contains(4)) {
        lacking.push_back({doc.id, 0.5, doc.location});
        break;
      }
    }
    Expect(lacking.size() == 1, "corpus holds a doc with only one term");
    ExpectRejected(checker.CheckShape(and_q, lacking),
                   "AND result lacking a term fails");
  }
  // A stale answer: after a write that changes the top-k, the answer
  // taken before the write must be rejected, and the fresh one pass.
  {
    SpatialDocument best;
    best.id = 5000;
    best.location = q.location;
    best.terms = {{1, 1.0f}, {4, 1.0f}};
    Expect(index.Insert(best).ok() && checker.Insert(best).ok(),
           "insert a new best doc");
    ExpectRejected(checker.CheckAgainstOracle(q, alpha, right),
                   "pre-insert answer is rejected");
    const std::vector<ScoredDoc> fresh = search(q);
    Expect(checker.CheckAgainstOracle(q, alpha, fresh).empty(),
           "post-insert answer passes");

    const SpatialDocument gone = doc_of(fresh[1].doc);
    Expect(index.Delete(gone).ok() && checker.Delete(gone).ok(),
           "delete a top doc");
    ExpectRejected(checker.CheckShape(q, fresh),
                   "pre-delete answer holds a dead doc");
    ExpectRejected(checker.CheckAgainstOracle(q, alpha, fresh),
                   "pre-delete answer is rejected");
    Expect(checker.CheckAgainstOracle(q, alpha, search(q)).empty(),
           "post-delete answer passes");
  }
  // Warm repeats compare bit for bit.
  {
    std::vector<ScoredDoc> a = search(q);
    std::vector<ScoredDoc> b = a;
    Expect(AnswerChecker::CompareAnswers(a, b, 0.0).empty(),
           "identical repeat passes");
    b[2].score = std::nextafter(b[2].score, 2.0);
    ExpectRejected(AnswerChecker::CompareAnswers(a, b, 0.0),
                   "repeat differing in one score bit is rejected");
  }

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
