// eds_lint — standalone linter for rule-language source files.
//
//   $ eds_lint rules.edsr              # lint one or more files
//   $ eds_lint -                       # lint stdin
//   $ eds_lint --builtin               # lint the built-in rule libraries
//   $ eds_lint --werror rules.edsr     # warnings fail the run too
//
// Pass toggles: --no-divergence --no-dead --no-shadowing --no-hygiene.
// --verify additionally runs the bounded soundness checker (EDS-Sxxx
// findings, see docs/rule_verify.md) over every unit after linting it.
// Exit status: 0 clean (or warnings only), 1 lint errors, 2 usage/IO error.
//
// The linter assumes the standard builtin registry (standard methods +
// magic + semantic): a rule file calling methods outside that set reports
// EDS-L001. Catalog-dependent ISA type checks are off here — there is no
// catalog on the command line.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
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
  std::cerr
      << "usage: eds_lint [options] <file.edsr ... | - | --builtin>\n"
         "  --builtin        lint the built-in rule libraries\n"
         "  --werror         treat warnings as errors (exit 1)\n"
         "  --verify         also run the bounded soundness checker\n"
         "  --no-divergence  --no-dead  --no-shadowing  --no-hygiene\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  eds::lint::LintOptions opts;
  bool werror = false;
  bool builtin = false;
  bool run_verify = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--builtin") {
      builtin = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--verify") {
      run_verify = true;
    } else if (arg == "--no-divergence") {
      opts.check_divergence = false;
    } else if (arg == "--no-dead") {
      opts.check_dead_rules = false;
    } else if (arg == "--no-shadowing") {
      opts.check_shadowing = false;
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (arg == "--no-hygiene") {
      opts.check_hygiene = false;
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
    eds::lint::LintReport report =
        eds::lint::LintSource(src.text, builtins, opts);
    if (run_verify) {
      eds::lint::LintReport vreport =
          eds::verify::VerifyLibrary(src.text, builtins);
      for (const eds::lint::Diagnostic& d : vreport.diagnostics()) {
        report.Add(d);
      }
      report.SortByLocation();
    }
    errors += report.error_count();
    warnings += report.warning_count();
    for (const eds::lint::Diagnostic& d : report.diagnostics()) {
      std::cout << src.name << ": " << d.ToString() << "\n";
    }
  }
  std::cout << sources.size() << " unit(s), " << errors << " error(s), "
            << warnings << " warning(s)\n";
  return (errors > 0 || (werror && warnings > 0)) ? 1 : 0;
}
