// eds_cachectl — persisted plan-cache file inspector (srv/persist.h).
//
//   $ eds_cachectl dump cache.eds          # header + every record, text
//   $ eds_cachectl verify cache.eds        # checksums + parse round trip
//   $ eds_cachectl compact cache.eds       # rewrite: drop bad records
//   $ eds_cachectl compact --top-k=64 cache.eds
//
// dump prints the file header and each record's kind, hit count, and term
// text — the format is ToString'd terms, so the output is directly
// greppable for a template or relation name.
//
// verify re-checks everything a warm-starting service would: the header
// magic/CRC/version, every record's CRC and framing, and that every term
// text parses back to a term that reprints to the same text (the
// round-trip contract save time enforced). Epoch staleness cannot be
// checked without the live session, so the epochs are printed for the
// operator to compare.
//
// compact loads the file (skipping whatever is broken) and atomically
// rewrites it containing only the surviving, parseable records — the tool
// to run after a verify reports corruption, or to shrink a file with
// --top-k.
//
// Exit status: 0 clean; 1 the file is damaged (verify: any skipped /
// torn / unparseable record; compact: nothing salvageable); 2 usage or
// I/O error.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "srv/codec.h"
#include "srv/persist.h"
#include "term/parser.h"

namespace {

using eds::Result;
using eds::Status;
using eds::srv::CacheImage;
using eds::srv::LoadStats;
using eds::srv::PersistedL0;
using eds::srv::PersistedPlan;
using eds::srv::PersistOptions;

int Usage() {
  std::cerr << "usage: eds_cachectl <dump|verify|compact> [options] <file>\n"
               "  --top-k=N   compact: keep only the N hottest entries per "
               "cache\n";
  return 2;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  try {
    size_t pos = 0;
    unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

void PrintHeader(const CacheImage& image, const LoadStats& stats) {
  std::cout << "header: version=" << image.header.version
            << " catalog_epoch=" << image.header.catalog_epoch
            << " rules_epoch=" << image.header.rules_epoch << "\n"
            << "records: plans=" << image.plans.size()
            << " l0=" << image.l0.size() << " skipped=" << stats.skipped
            << (stats.torn_tail ? " (torn tail)" : "") << "\n";
}

// Checks that `text` parses and reprints to itself — the loader will only
// admit records for which this holds, so verify flags them now.
bool TermTextOk(const std::string& text, const char* what, size_t index) {
  Result<eds::term::TermRef> parsed = eds::term::ParseTerm(text);
  if (!parsed.ok()) {
    std::cout << "BAD " << what << "[" << index
              << "]: " << parsed.status().ToString() << "\n";
    return false;
  }
  if ((*parsed)->ToString() != text) {
    std::cout << "BAD " << what << "[" << index
              << "]: text does not round-trip\n";
    return false;
  }
  return true;
}

int Dump(const CacheImage& image, const LoadStats& stats) {
  PrintHeader(image, stats);
  size_t i = 0;
  for (const PersistedPlan& plan : image.plans) {
    std::cout << "plan[" << i++ << "] hits=" << plan.hits
              << " rewrite_ns=" << plan.rewrite_ns << "\n"
              << "  template: " << plan.tmpl_text << "\n"
              << "  normal:   " << plan.nf_text << "\n";
    for (size_t p = 0; p < plan.param_texts.size(); ++p) {
      std::cout << "  $CQ" << p << " = " << plan.param_texts[p] << "\n";
    }
  }
  i = 0;
  for (const PersistedL0& entry : image.l0) {
    std::cout << "l0[" << i++ << "] hits=" << entry.hits << "\n"
              << "  key:  " << entry.key << "\n"
              << "  raw:  " << entry.raw_text << "\n"
              << "  plan: " << entry.plan_text << "\n"
              << "  columns:";
    for (const std::string& c : entry.columns) std::cout << " " << c;
    std::cout << "\n";
  }
  return stats.skipped != 0 || stats.torn_tail ? 1 : 0;
}

int Verify(const CacheImage& image, const LoadStats& stats) {
  PrintHeader(image, stats);
  uint64_t bad = stats.skipped + (stats.torn_tail ? 1 : 0);
  size_t i = 0;
  for (const PersistedPlan& plan : image.plans) {
    if (!TermTextOk(plan.tmpl_text, "plan.template", i)) ++bad;
    if (!TermTextOk(plan.nf_text, "plan.normal", i)) ++bad;
    for (const std::string& p : plan.param_texts) {
      if (!TermTextOk(p, "plan.param", i)) ++bad;
    }
    ++i;
  }
  i = 0;
  for (const PersistedL0& entry : image.l0) {
    if (!TermTextOk(entry.raw_text, "l0.raw", i)) ++bad;
    if (!TermTextOk(entry.plan_text, "l0.plan", i)) ++bad;
    ++i;
  }
  if (bad == 0) {
    std::cout << "OK\n";
    return 0;
  }
  std::cout << "CORRUPT: " << bad << " problem(s)\n";
  return 1;
}

int Compact(const std::string& path, CacheImage image, const LoadStats& stats,
            const PersistOptions& options) {
  // Keep only records the loader would admit: parseable, round-tripping
  // text. The hit ranking is preserved by construction (records were
  // written hottest-first).
  CacheImage clean;
  clean.header = image.header;
  for (PersistedPlan& plan : image.plans) {
    if (options.top_k != 0 && clean.plans.size() >= options.top_k) break;
    bool ok = TermTextOk(plan.tmpl_text, "plan.template", clean.plans.size()) &&
              TermTextOk(plan.nf_text, "plan.normal", clean.plans.size());
    for (const std::string& p : plan.param_texts) {
      ok = ok && TermTextOk(p, "plan.param", clean.plans.size());
    }
    if (ok) clean.plans.push_back(std::move(plan));
  }
  for (PersistedL0& entry : image.l0) {
    if (options.top_k != 0 && clean.l0.size() >= options.top_k) break;
    bool ok = TermTextOk(entry.raw_text, "l0.raw", clean.l0.size()) &&
              TermTextOk(entry.plan_text, "l0.plan", clean.l0.size());
    if (ok) clean.l0.push_back(std::move(entry));
  }
  if (clean.plans.empty() && clean.l0.empty() &&
      !(image.plans.empty() && image.l0.empty())) {
    std::cerr << "eds_cachectl: nothing salvageable in " << path << "\n";
    return 1;
  }
  std::string bytes = eds::srv::EncodeCacheImage(clean, options);
  Status written = eds::srv::WriteFileAtomic(path, bytes);
  if (!written.ok()) {
    std::cerr << "eds_cachectl: " << written.ToString() << "\n";
    return 2;
  }
  std::cout << "compacted: plans=" << clean.plans.size()
            << " l0=" << clean.l0.size() << " bytes=" << bytes.size()
            << (stats.skipped != 0 || stats.torn_tail
                    ? " (dropped damaged records)"
                    : "")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::string path;
  PersistOptions options;
  options.top_k = 0;  // compact keeps everything unless --top-k says so
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--top-k=", 0) == 0) {
      uint64_t v = 0;
      if (!ParseU64(arg.substr(8), &v)) return Usage();
      options.top_k = static_cast<size_t>(v);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else if (command.empty()) {
      command = arg;
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty() ||
      (command != "dump" && command != "verify" && command != "compact")) {
    return Usage();
  }

  LoadStats stats;
  Result<CacheImage> image = eds::srv::LoadPersistFile(path, options, &stats);
  if (!image.ok()) {
    std::cerr << "eds_cachectl: " << image.status().ToString() << "\n";
    // An unreadable header is corruption for verify purposes, a hard I/O
    // error otherwise.
    return command == "verify" &&
                   image.status().code() != eds::StatusCode::kNotFound
               ? 1
               : 2;
  }
  if (command == "dump") return Dump(*image, stats);
  if (command == "verify") return Verify(*image, stats);
  return Compact(path, std::move(image).value(), stats, options);
}
