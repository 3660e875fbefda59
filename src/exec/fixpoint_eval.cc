#include <algorithm>

#include "common/strings.h"
#include "exec/executor.h"
#include "gov/failpoint.h"
#include "lera/lera.h"
#include "magic/magic.h"
#include "obs/trace.h"

namespace eds::exec {

using term::TermList;
using term::TermRef;

namespace {

// True if `rows` (sorted) contains `row`.
bool ContainsRow(const Rows& sorted, const Row& row) {
  return std::binary_search(sorted.begin(), sorted.end(), row,
                            [](const Row& a, const Row& b) {
                              return CompareRows(a, b) < 0;
                            });
}

}  // namespace

// FIX(R, body) computes the least fixpoint R = body(R) by iteration.
//
// Semi-naive mode applies when the body is UNION(SET(branches...)) and
// every branch that references R is a SEARCH whose references to R are
// direct inputs: each round evaluates the recursive branches once per
// R-occurrence with that occurrence bound to the previous round's delta and
// the others to the full accumulated relation. Otherwise (or when
// options_.seminaive is false) naive iteration re-evaluates the whole body
// against the accumulated relation each round — the bench_fixpoint
// ablation's baseline.
Result<Rows> Executor::EvalFix(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(std::string rel_name, lera::FixRelationName(t));
  EDS_ASSIGN_OR_RETURN(TermRef body, lera::FixBody(t));
  const std::string key = ToUpperAscii(rel_name);

  // Decide whether semi-naive evaluation applies.
  bool seminaive = options_.seminaive && lera::IsUnion(body);
  TermList branches;
  if (seminaive) {
    EDS_ASSIGN_OR_RETURN(branches, lera::UnionInputs(body));
    for (const TermRef& b : branches) {
      if (!magic::ReferencesRelation(b, rel_name)) continue;
      if (!lera::IsSearch(b)) {
        seminaive = false;
        break;
      }
      EDS_ASSIGN_OR_RETURN(TermList inputs, lera::SearchInputs(b));
      for (const TermRef& in : inputs) {
        // Every reference to R must be a direct input.
        if (magic::ReferencesRelation(in, rel_name) &&
            !lera::IsRelation(in)) {
          seminaive = false;
          break;
        }
      }
      if (!seminaive) break;
    }
  }

  Rows total;  // sorted, deduplicated accumulation
  if (!seminaive) {
    // Naive iteration: R_{i+1} = R_i ∪ body(R_i).
    for (size_t round = 0; round < options_.max_fix_iterations; ++round) {
      EDS_FAIL_POINT("exec.fix.round");
      if (options_.guard != nullptr && options_.guard->Check()) {
        return options_.guard->TripStatus();
      }
      ++stats_.fix_iterations;
      obs::Span round_span(options_.trace_sink, "exec.fix.round", "exec");
      if (options_.trace_sink != nullptr) {
        round_span.Arg("round", static_cast<int64_t>(round));
      }
      FixEnv inner = env;
      inner[key] = &total;
      EDS_ASSIGN_OR_RETURN(Rows produced, Eval(body, inner));
      size_t before = total.size();
      total.insert(total.end(), std::make_move_iterator(produced.begin()),
                   std::make_move_iterator(produced.end()));
      DedupMaybeVec(&total);
      stats_.fix_tuples += total.size() - before;
      if (options_.trace_sink != nullptr) {
        round_span.Arg("new_tuples",
                       static_cast<int64_t>(total.size() - before));
      }
      if (total.size() == before) return total;
    }
    return Status::ResourceExhausted("fixpoint " + rel_name +
                                     " exceeded max iterations");
  }

  // Semi-naive. Round 0: the full body against the empty relation seeds
  // both the total and the delta (recursive branches contribute nothing).
  Rows delta;
  {
    ++stats_.fix_iterations;
    FixEnv inner = env;
    inner[key] = &total;
    EDS_ASSIGN_OR_RETURN(Rows produced, Eval(body, inner));
    DedupMaybeVec(&produced);
    total = produced;
    delta = std::move(produced);
    stats_.fix_tuples += total.size();
  }

  for (size_t round = 0; !delta.empty(); ++round) {
    if (round >= options_.max_fix_iterations) {
      return Status::ResourceExhausted("fixpoint " + rel_name +
                                       " exceeded max iterations");
    }
    EDS_FAIL_POINT("exec.fix.round");
    if (options_.guard != nullptr && options_.guard->Check()) {
      return options_.guard->TripStatus();
    }
    ++stats_.fix_iterations;
    obs::Span round_span(options_.trace_sink, "exec.fix.round", "exec");
    if (options_.trace_sink != nullptr) {
      round_span.Arg("round", static_cast<int64_t>(round + 1));
      round_span.Arg("delta_in", static_cast<int64_t>(delta.size()));
    }
    Rows produced;
    for (const TermRef& branch : branches) {
      if (!magic::ReferencesRelation(branch, rel_name)) continue;
      EDS_ASSIGN_OR_RETURN(TermList input_terms, lera::SearchInputs(branch));
      // Occurrence positions of R among the branch inputs.
      std::vector<size_t> occurrences;
      for (size_t i = 0; i < input_terms.size(); ++i) {
        if (lera::IsRelation(input_terms[i])) {
          auto name = lera::RelationName(input_terms[i]);
          if (name.ok() && EqualsIgnoreCase(*name, rel_name)) {
            occurrences.push_back(i);
          }
        }
      }
      // One pass per occurrence: that occurrence sees the delta, the rest
      // see the full relation.
      for (size_t which : occurrences) {
        // Delta/total/stored inputs are borrowed, not copied, per round;
        // `owned` is reserved so pointers to its elements stay stable.
        // Delta/total bindings are row vectors, so their batch slot stays
        // null and the vectorized search converts them per round.
        std::vector<Rows> owned;
        owned.reserve(input_terms.size());
        std::vector<const Rows*> inputs;
        inputs.reserve(input_terms.size());
        std::vector<const vec::Batch*> batches;
        batches.reserve(input_terms.size());
        for (size_t i = 0; i < input_terms.size(); ++i) {
          if (i == which) {
            inputs.push_back(&delta);
            batches.push_back(nullptr);
            continue;
          }
          if (std::find(occurrences.begin(), occurrences.end(), i) !=
              occurrences.end()) {
            inputs.push_back(&total);
            batches.push_back(nullptr);
            continue;
          }
          FixEnv inner = env;
          inner[key] = &total;
          if (Borrowed b = TryBorrow(input_terms[i], inner)) {
            inputs.push_back(b.rows);
            batches.push_back(b.batch);
            continue;
          }
          Result<Rows> rows = Eval(input_terms[i], inner);
          EDS_RETURN_IF_ERROR(rows.status());
          owned.push_back(std::move(*rows));
          inputs.push_back(&owned.back());
          batches.push_back(nullptr);
        }
        EDS_ASSIGN_OR_RETURN(Rows branch_rows,
                             SearchWithInputsMaybeVec(branch, inputs, batches));
        produced.insert(produced.end(),
                        std::make_move_iterator(branch_rows.begin()),
                        std::make_move_iterator(branch_rows.end()));
      }
    }
    DedupMaybeVec(&produced);
    Rows new_delta;
    for (Row& row : produced) {
      if (!ContainsRow(total, row)) new_delta.push_back(std::move(row));
    }
    DedupRows(&new_delta);
    if (new_delta.empty()) break;
    stats_.fix_tuples += new_delta.size();
    total.insert(total.end(), new_delta.begin(), new_delta.end());
    DedupRows(&total);
    delta = std::move(new_delta);
  }
  return total;
}

}  // namespace eds::exec
