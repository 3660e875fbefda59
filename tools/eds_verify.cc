// eds_verify — bounded semantic equivalence checker for rule files.
//
//   $ eds_verify rules.edsr            # verify one or more files
//   $ eds_verify -                     # verify stdin
//   $ eds_verify --builtin             # verify the built-in rule libraries
//   $ eds_verify --werror rules.edsr   # warnings fail the run too
//
// For every rule the verifier instantiates the LHS over small generated
// databases (duplicate / NULL / empty corners plus seeded random fills),
// applies the rule once, executes both sides, and reports divergence as
// EDS-Sxxx diagnostics with a minimized counterexample. This is
// falsification, not proof — see docs/rule_verify.md.
//
// Exit status: 0 sound within bounds (or warnings only), 1 soundness
// errors, 2 usage/IO error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rules/extensions.h"
#include "rules/fixpoint.h"
#include "rules/merging.h"
#include "rules/optimizer.h"
#include "rules/permutation.h"
#include "rules/semantic.h"
#include "rules/simplify.h"
#include "verify/verify.h"

namespace {

struct NamedSource {
  std::string name;
  std::string text;
};

std::vector<NamedSource> BuiltinSources() {
  return {
      {"merging", eds::rules::MergingRuleSource()},
      {"permutation", eds::rules::PermutationRuleSource()},
      {"fixpoint", eds::rules::FixpointRuleSource()},
      {"simplify", eds::rules::SimplifyRuleSource()},
      {"implicit_knowledge", eds::rules::ImplicitKnowledgeRuleSource()},
      {"semantic_methods", eds::rules::SemanticMethodRuleSource()},
      {"extensions", eds::rules::ExtensionRuleSource()},
  };
}

int Usage() {
  std::cerr << "usage: eds_verify [options] <file.edsr ... | - | --builtin>\n"
               "  --builtin       verify the built-in rule libraries\n"
               "  --werror        treat warnings as errors (exit 1)\n"
               "  --seed N        instance-generation seed (default 42)\n"
               "  --no-minimize   keep full counterexample databases\n"
               "  --no-notes      suppress EDS-S010/EDS-S011 notes\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  eds::verify::VerifyOptions opts;
  bool werror = false;
  bool builtin = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--builtin") {
      builtin = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--no-minimize") {
      opts.minimize = false;
    } else if (arg == "--no-notes") {
      opts.report_coverage_notes = false;
    } else if (arg == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (arg != "-" && !arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return Usage();
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (!builtin && paths.empty()) return Usage();

  std::vector<NamedSource> sources;
  if (builtin) sources = BuiltinSources();
  for (const std::string& path : paths) {
    NamedSource src;
    src.name = path;
    if (path == "-") {
      src.name = "<stdin>";
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      src.text = buf.str();
    } else {
      std::ifstream file(path);
      if (!file) {
        std::cerr << "cannot open " << path << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << file.rdbuf();
      src.text = buf.str();
    }
    sources.push_back(std::move(src));
  }

  eds::rewrite::BuiltinRegistry builtins;
  eds::rules::InstallOptimizerBuiltins(&builtins);

  size_t errors = 0, warnings = 0;
  for (const NamedSource& src : sources) {
    eds::verify::VerifySummary summary;
    eds::lint::LintReport report =
        eds::verify::VerifyLibrary(src.text, builtins, opts, &summary);
    errors += report.error_count();
    warnings += report.warning_count();
    for (const eds::lint::Diagnostic& d : report.diagnostics()) {
      std::cout << src.name << ": " << d.ToString() << "\n";
    }
    std::cout << src.name << ": " << summary.ToString() << "\n";
  }
  std::cout << sources.size() << " unit(s), " << errors << " error(s), "
            << warnings << " warning(s)\n";
  return (errors > 0 || (werror && warnings > 0)) ? 1 : 0;
}
