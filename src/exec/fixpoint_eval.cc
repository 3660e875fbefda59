#include <algorithm>
#include <list>

#include "common/strings.h"
#include "exec/executor.h"
#include "exec/vec/kernels.h"
#include "gov/failpoint.h"
#include "lera/lera.h"
#include "magic/magic.h"
#include "obs/trace.h"

namespace eds::exec {

using term::TermList;
using term::TermRef;

namespace {

// One R-occurrence of a recursive branch in a semi-naive round: the
// branch's SEARCH with that occurrence bound to the delta.
struct DeltaPass {
  TermRef qual;
  TermList projections;
  std::vector<const vec::Batch*> inputs;
};

// The recursive branches of `body` when semi-naive evaluation applies to
// it: a UNION(SET(branches...)) whose every branch that references `rel`
// is a SEARCH with each reference to `rel` a direct input. Empty
// otherwise, and for a body without recursive branches, which naive
// iteration finishes in as many rounds.
Result<TermList> RecursiveBranches(const TermRef& body,
                                   const std::string& rel) {
  if (!lera::IsUnion(body)) return TermList{};
  EDS_ASSIGN_OR_RETURN(TermList branches, lera::UnionInputs(body));
  TermList recursive;
  for (const TermRef& b : branches) {
    if (!magic::ReferencesRelation(b, rel)) continue;
    if (!lera::IsSearch(b)) return TermList{};
    EDS_ASSIGN_OR_RETURN(TermList inputs, lera::SearchInputs(b));
    for (const TermRef& in : inputs) {
      if (magic::ReferencesRelation(in, rel) && !lera::IsRelation(in)) {
        return TermList{};
      }
    }
    recursive.push_back(b);
  }
  return recursive;
}

}  // namespace

// FIX(R, body) computes the least fixpoint R = body(R) by iteration, one
// round at a time. The total, bound to R, holds the distinct rows found so
// far; each round appends the rows it derives that the total does not yet
// hold, those rows are the next round's delta, and the first round that
// appends none ends the loop. Round 0, and every round of naive iteration,
// evaluates the whole body against the total. A later semi-naive round
// (options_.seminaive, and RecursiveBranches applies) evaluates the
// recursive branches once per R-occurrence, with that occurrence bound to
// the delta and the others to the total; the branches' other inputs are
// borrowed or evaluated once per FIX. Naive iteration is the
// bench_fixpoint ablation's baseline.
Result<Rows> Executor::EvalFix(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(std::string rel_name, lera::FixRelationName(t));
  EDS_ASSIGN_OR_RETURN(TermRef body, lera::FixBody(t));
  TermList recursive;
  if (options_.seminaive) {
    EDS_ASSIGN_OR_RETURN(recursive, RecursiveBranches(body, rel_name));
  }

  vec::RowSet total;
  vec::Batch delta;
  FixEnv inner = env;
  inner[ToUpperAscii(rel_name)] = &total.batch();
  std::vector<DeltaPass> passes;
  std::list<vec::Batch> owned;  // the passes' evaluated inputs
  obs::TraceSink* sink = options_.trace_sink;
  for (size_t round = 0;; ++round) {
    if (round >= options_.max_fix_iterations) {
      return Status::ResourceExhausted("fixpoint " + rel_name +
                                       " exceeded max iterations");
    }
    EDS_FAIL_POINT("exec.fix.round");
    if (options_.guard != nullptr && options_.guard->Check()) {
      return options_.guard->TripStatus();
    }
    ++stats_.fix_iterations;
    obs::Span round_span(sink, "exec.fix.round", "exec");
    if (sink != nullptr) {
      round_span.Arg("round", static_cast<int64_t>(round));
      round_span.Arg("delta_in", static_cast<int64_t>(delta.rows));
    }
    Rows produced;
    if (round == 0 || recursive.empty()) {
      EDS_ASSIGN_OR_RETURN(produced, Eval(body, inner));
    } else {
      if (round == 1) {
        for (const TermRef& branch : recursive) {
          EDS_ASSIGN_OR_RETURN(TermList input_terms,
                               lera::SearchInputs(branch));
          DeltaPass pass;
          EDS_ASSIGN_OR_RETURN(pass.qual, lera::SearchQual(branch));
          EDS_ASSIGN_OR_RETURN(pass.projections,
                               lera::SearchProjections(branch));
          for (const TermRef& in : input_terms) {
            EDS_ASSIGN_OR_RETURN(const vec::Batch* batch,
                                 InputBatch(in, inner, &owned));
            pass.inputs.push_back(batch);
          }
          // One pass per occurrence of R: that one reads the delta, the
          // others the total.
          for (size_t i = 0; i < input_terms.size(); ++i) {
            if (pass.inputs[i] != &total.batch()) continue;
            DeltaPass occurrence = pass;
            occurrence.inputs[i] = &delta;
            passes.push_back(std::move(occurrence));
          }
        }
      }
      for (const DeltaPass& pass : passes) {
        EDS_ASSIGN_OR_RETURN(
            Rows rows,
            SearchWithInputsMaybeVec(pass.qual, pass.projections, pass.inputs));
        produced.insert(produced.end(), std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.end()));
      }
    }
    Rows fresh;
    for (Row& row : produced) {
      EDS_ASSIGN_OR_RETURN(bool added, total.Insert(row));
      if (added) fresh.push_back(std::move(row));
    }
    stats_.fix_tuples += fresh.size();
    if (sink != nullptr) {
      round_span.Arg("new_tuples", static_cast<int64_t>(fresh.size()));
    }
    if (fresh.empty()) break;
    vec::Batch::FromRows(fresh, &delta);  // not ragged: Insert checked
  }
  Rows out = total.batch().ToRows();
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return out;
}

}  // namespace eds::exec
