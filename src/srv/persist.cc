#include "srv/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "gov/failpoint.h"
#include "gov/governor.h"
#include "srv/fingerprint.h"
#include "term/parser.h"

namespace eds::srv {

namespace {

constexpr uint8_t kPlanRecord = 1;
constexpr uint8_t kL0Record = 2;

// Prints `t` and parses the text back, requiring the hash-consed pointer
// to survive the round trip. Terms that cannot (NULL constants, non-finite
// reals, collection constants — anything whose printed form is lossy or
// unparseable) yield nullopt and are skipped by the caller: the persisted
// file only ever contains text the parser provably maps back to the exact
// term that was cached.
std::optional<std::string> RoundTripText(const term::TermRef& t,
                                         size_t max_text_bytes) {
  if (t == nullptr) return std::nullopt;
  std::string text = t->ToString();
  if (text.size() > max_text_bytes) return std::nullopt;
  Result<term::TermRef> parsed = term::ParseTerm(text);
  if (!parsed.ok() || parsed.value().get() != t.get()) return std::nullopt;
  return text;
}

// Failpoint wrappers: EDS_FAIL_POINT returns out of its enclosing
// function, so each site lives in its own lambda-shaped function.
Status SaveFailPoint() {
  EDS_FAIL_POINT("persist.save");
  return Status::OK();
}
Status RenameFailPoint() {
  EDS_FAIL_POINT("persist.rename");
  return Status::OK();
}
Status LoadRecordFailPoint() {
  EDS_FAIL_POINT("persist.load.record");
  return Status::OK();
}

// The tail every record kind ends with: u32 n, then n strings.
void PutStringList(const std::vector<std::string>& items, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(items.size()));
  for (const std::string& item : items) enc->PutString(item);
}

void EncodePlanRecord(const PersistedPlan& plan, std::string* payload) {
  Encoder enc(payload);
  enc.PutU8(kPlanRecord);
  enc.PutU64(plan.hits);
  enc.PutU64(plan.rewrite_ns);
  enc.PutString(plan.tmpl_text);
  enc.PutString(plan.nf_text);
  PutStringList(plan.param_texts, &enc);
}

void EncodeL0Record(const PersistedL0& entry, std::string* payload) {
  Encoder enc(payload);
  enc.PutU8(kL0Record);
  enc.PutU64(entry.hits);
  enc.PutString(entry.key);
  enc.PutString(entry.raw_text);
  enc.PutString(entry.plan_text);
  PutStringList(entry.columns, &enc);
}

// Reads the closing string list and requires the record to end there. Each
// item costs >= 4 bytes on the wire, so the payload length already bounds
// real lists — the count check only defeats lengths that lie.
Status GetStringListToEnd(Decoder* dec, std::vector<std::string>* out) {
  EDS_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  if (n > dec->remaining() / 4 + 1) {
    return Status::InvalidArgument("persist: list count lies");
  }
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    EDS_ASSIGN_OR_RETURN(std::string item, dec->GetString());
    out->push_back(std::move(item));
  }
  if (!dec->done()) {
    return Status::InvalidArgument("persist: trailing bytes in record");
  }
  return Status::OK();
}

// Decoders return Status so a malformed payload is one counted skip; each
// appends its record to `image` only once it decoded whole.
Status DecodePlanRecord(Decoder* dec, CacheImage* image) {
  PersistedPlan plan;
  EDS_ASSIGN_OR_RETURN(plan.hits, dec->GetU64());
  EDS_ASSIGN_OR_RETURN(plan.rewrite_ns, dec->GetU64());
  EDS_ASSIGN_OR_RETURN(plan.tmpl_text, dec->GetString());
  EDS_ASSIGN_OR_RETURN(plan.nf_text, dec->GetString());
  EDS_RETURN_IF_ERROR(GetStringListToEnd(dec, &plan.param_texts));
  image->plans.push_back(std::move(plan));
  return Status::OK();
}

Status DecodeL0Record(Decoder* dec, CacheImage* image) {
  PersistedL0 entry;
  EDS_ASSIGN_OR_RETURN(entry.hits, dec->GetU64());
  EDS_ASSIGN_OR_RETURN(entry.key, dec->GetString());
  EDS_ASSIGN_OR_RETURN(entry.raw_text, dec->GetString());
  EDS_ASSIGN_OR_RETURN(entry.plan_text, dec->GetString());
  EDS_RETURN_IF_ERROR(GetStringListToEnd(dec, &entry.columns));
  image->l0.push_back(std::move(entry));
  return Status::OK();
}

void SortRows(exec::Rows* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const exec::Row& a, const exec::Row& b) {
              return exec::CompareRows(a, b) < 0;
            });
}

bool RowsEqual(const exec::Rows& a, const exec::Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (exec::CompareRows(a[i], b[i]) != 0) return false;
  }
  return true;
}

// Load-time differential verification (PersistOptions::verify_load): runs
// two ground plans that must be equivalent and compares their sorted row
// bags. Returns true when a divergence is PROVEN (counted rejected).
// Non-ground plans, errors and budget trips on either side count the entry
// unverified and admit it: an overloaded verifier must not evict valid
// cache entries.
bool ProvenDivergent(exec::Session* session, const term::TermRef& lhs,
                     const term::TermRef& rhs, const PersistOptions& options,
                     LoadStats* s) {
  auto run = [&](const term::TermRef& plan) -> Result<exec::Rows> {
    gov::QueryGuard guard(options.verify_limits);
    exec::ExecOptions opts;
    opts.guard = &guard;
    EDS_ASSIGN_OR_RETURN(exec::Rows rows, session->Run(plan, opts));
    SortRows(&rows);
    return rows;
  };
  if (lhs->ground() && rhs->ground()) {
    Result<exec::Rows> left = run(lhs);
    if (left.ok()) {
      Result<exec::Rows> right = run(rhs);
      if (right.ok()) {
        if (RowsEqual(*left, *right)) return false;  // proven clean
        ++s->rejected;
        return true;
      }
    }
  }
  ++s->unverified;
  return false;
}

std::pair<uint64_t, uint64_t> EpochsOf(const PlanCache::SnapshotEntry& e) {
  return {e.catalog_epoch, e.rules_epoch};
}
std::pair<uint64_t, uint64_t> EpochsOf(const L0Cache::SnapshotEntry& e) {
  return {e.entry.catalog_epoch, e.entry.rules_epoch};
}

// Appends to `out` the hottest entries first, up to `top_k` (0: no cut),
// dropping entries built under other epochs than the header's (stale) and
// those `convert` cannot persist (nullopt: round-trip or size-cap failure,
// skipped). One step for both record kinds.
template <typename Entry, typename Record, typename Convert>
void KeepHottest(std::vector<Entry> entries, const FileHeader& header,
                 size_t top_k, SaveStats* s, std::vector<Record>* out,
                 Convert convert) {
  // Hottest first; the top-k cut then keeps the entries most worth the
  // restart's disk read.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.hits > b.hits;
                   });
  for (const Entry& e : entries) {
    if (top_k != 0 && out->size() >= top_k) break;
    const auto [catalog_epoch, rules_epoch] = EpochsOf(e);
    if (catalog_epoch != header.catalog_epoch ||
        rules_epoch != header.rules_epoch) {
      ++s->stale;
      continue;
    }
    std::optional<Record> record = convert(e);
    if (!record.has_value()) {
      ++s->skipped;
      continue;
    }
    out->push_back(std::move(*record));
  }
}

// Parses persisted term text under the load-side paranoia caps.
Result<term::TermRef> ParseBounded(const std::string& text,
                                   const PersistOptions& options) {
  if (text.size() > options.max_text_bytes) {
    return Status::InvalidArgument("persist: term text exceeds cap");
  }
  EDS_ASSIGN_OR_RETURN(term::TermRef t, term::ParseTerm(text));
  if (t->node_count() > options.max_term_nodes) {
    return Status::ResourceExhausted("persist: term node count " +
                                     std::to_string(t->node_count()) +
                                     " exceeds cap");
  }
  return t;
}

}  // namespace

CacheImage BuildCacheImage(const PlanCache& cache, const L0Cache& l0,
                           const FileHeader& header,
                           const PersistOptions& options, SaveStats* stats) {
  SaveStats local;
  SaveStats* s = stats != nullptr ? stats : &local;
  CacheImage image;
  image.header = header;
  auto text = [&](const term::TermRef& t) {
    return RoundTripText(t, options.max_text_bytes);
  };

  KeepHottest(
      cache.Snapshot(), header, options.top_k, s, &image.plans,
      [&](const PlanCache::SnapshotEntry& e) -> std::optional<PersistedPlan> {
        PersistedPlan plan;
        std::optional<std::string> tmpl = text(e.tmpl);
        std::optional<std::string> nf = text(e.normal_form);
        if (!tmpl.has_value() || !nf.has_value()) return std::nullopt;
        for (const term::TermRef& p : e.sample_params) {
          std::optional<std::string> pt = text(p);
          if (!pt.has_value()) return std::nullopt;
          plan.param_texts.push_back(std::move(*pt));
        }
        plan.tmpl_text = std::move(*tmpl);
        plan.nf_text = std::move(*nf);
        plan.hits = e.hits;
        plan.rewrite_ns = e.rewrite_ns;
        return plan;
      });

  KeepHottest(
      l0.Snapshot(), header, options.top_k, s, &image.l0,
      [&](const L0Cache::SnapshotEntry& e) -> std::optional<PersistedL0> {
        if (e.key.size() > options.max_text_bytes) return std::nullopt;
        std::optional<std::string> raw = text(e.entry.raw_plan);
        std::optional<std::string> plan = text(e.entry.plan);
        if (!raw.has_value() || !plan.has_value()) return std::nullopt;
        PersistedL0 out;
        out.key = e.key;
        out.raw_text = std::move(*raw);
        out.plan_text = std::move(*plan);
        out.columns = e.entry.columns;
        out.hits = e.hits;
        return out;
      });
  return image;
}

std::string EncodeCacheImage(const CacheImage& image,
                             const PersistOptions& options,
                             SaveStats* stats) {
  SaveStats local;
  SaveStats* s = stats != nullptr ? stats : &local;
  std::string out;
  EncodeFileHeader(image.header, &out);
  auto append = [&](const auto& records, auto encode, uint64_t* written) {
    std::string payload;
    for (const auto& record : records) {
      payload.clear();
      encode(record, &payload);
      if (payload.size() > options.max_record_bytes) {
        ++s->skipped;
        continue;
      }
      AppendRecord(payload, &out);
      ++*written;
    }
  };
  append(image.plans, EncodePlanRecord, &s->plans);
  append(image.l0, EncodeL0Record, &s->l0);
  s->bytes = out.size();
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  EDS_RETURN_IF_ERROR(SaveFailPoint());
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::RuntimeError("persist: open(" + tmp +
                                ") failed: " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::RuntimeError("persist: write(" + tmp +
                                  ") failed: " + std::strerror(saved));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::RuntimeError("persist: fsync(" + tmp +
                                ") failed: " + std::strerror(saved));
  }
  if (::close(fd) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    return Status::RuntimeError("persist: close(" + tmp +
                                ") failed: " + std::strerror(saved));
  }
  Status renamed = RenameFailPoint();
  if (!renamed.ok()) {
    ::unlink(tmp.c_str());
    return renamed;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    return Status::RuntimeError("persist: rename(" + tmp + " -> " + path +
                                ") failed: " + std::strerror(saved));
  }
  // Durability of the rename itself: fsync the containing directory.
  // Best-effort — the data file is already durable, and a directory we
  // cannot open (exotic mounts) is not a save failure.
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status SavePersistFile(const std::string& path, const PlanCache& cache,
                       const L0Cache& l0, const FileHeader& header,
                       const PersistOptions& options, SaveStats* stats) {
  CacheImage image = BuildCacheImage(cache, l0, header, options, stats);
  std::string bytes = EncodeCacheImage(image, options, stats);
  return WriteFileAtomic(path, bytes);
}

Result<CacheImage> LoadPersistFile(const std::string& path,
                                   const PersistOptions& options,
                                   LoadStats* stats) {
  LoadStats local;
  LoadStats* s = stats != nullptr ? stats : &local;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("persist: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::RuntimeError("persist: read error on " + path);
  }
  std::string data = std::move(buf).str();

  CacheImage image;
  EDS_ASSIGN_OR_RETURN(image.header, DecodeFileHeader(data));
  size_t pos = FileHeader::kEncodedSize;
  for (;;) {
    RecordRead rec = ReadRecord(data, &pos, options.max_record_bytes);
    if (rec.status == RecordStatus::kEnd) break;
    if (rec.status == RecordStatus::kTorn) {
      // Everything before this frame is the surviving prefix; the tail is
      // a crash artifact (or vandalism) and is simply not there.
      s->torn_tail = true;
      break;
    }
    if (rec.status == RecordStatus::kBadCrc || !LoadRecordFailPoint().ok()) {
      ++s->skipped;
      continue;
    }
    Decoder dec(rec.payload, options.max_text_bytes);
    Result<uint8_t> kind = dec.GetU8();
    Status decoded = kind.status();
    if (kind.ok() && *kind == kPlanRecord) {
      decoded = DecodePlanRecord(&dec, &image);
    } else if (kind.ok() && *kind == kL0Record) {
      decoded = DecodeL0Record(&dec, &image);
    } else if (kind.ok()) {
      // A record kind this build does not know: written by a future
      // version within the same format, or rot that survived the CRC.
      decoded = Status::InvalidArgument("persist: unknown record kind");
    }
    if (!decoded.ok()) ++s->skipped;
  }
  return image;
}

size_t WarmServiceCaches(const CacheImage& image, exec::Session* session,
                         PlanCache* cache, L0Cache* l0,
                         uint64_t catalog_epoch, uint64_t rules_epoch,
                         const PersistOptions& options, LoadStats* stats) {
  LoadStats local;
  LoadStats* s = stats != nullptr ? stats : &local;
  if (image.header.catalog_epoch != catalog_epoch ||
      image.header.rules_epoch != rules_epoch) {
    // The file was written under a different catalog / rule library than
    // this session rebuilt; every plan in it was rewritten under
    // assumptions that no longer hold.
    s->stale += image.plans.size() + image.l0.size();
    return 0;
  }
  size_t installed = 0;

  // Records are stored hottest first; installing them in reverse leaves
  // the hottest at the head of each cache's LRU.
  for (auto rec = image.plans.rbegin(); rec != image.plans.rend(); ++rec) {
    const PersistedPlan& plan = *rec;
    Result<term::TermRef> tmpl = ParseBounded(plan.tmpl_text, options);
    Result<term::TermRef> nf = ParseBounded(plan.nf_text, options);
    if (!tmpl.ok() || !nf.ok()) {
      ++s->skipped;
      continue;
    }
    term::TermList params;
    bool params_ok = true;
    for (const std::string& pt : plan.param_texts) {
      Result<term::TermRef> p = ParseBounded(pt, options);
      if (!p.ok()) {
        params_ok = false;
        break;
      }
      params.push_back(std::move(p).value());
    }
    if (!params_ok) {
      ++s->skipped;
      continue;
    }
    if (options.verify_load && session != nullptr) {
      // Substitute the sample literals into both sides and require equal
      // results. Non-ground instantiations (a template persisted without
      // its literals) cannot be executed — admitted unverified.
      Result<term::TermRef> raw = InstantiatePlan(*tmpl, params);
      Result<term::TermRef> opt = InstantiatePlan(*nf, params);
      if (!raw.ok() || !opt.ok()) {
        ++s->skipped;
        continue;
      }
      if (ProvenDivergent(session, *raw, *opt, options, s)) continue;
    }
    cache->Insert({std::move(tmpl).value(), catalog_epoch, rules_epoch},
                  std::move(nf).value(), plan.rewrite_ns, std::move(params),
                  plan.hits);
    ++s->ok;
    ++installed;
  }

  for (auto rec = image.l0.rbegin(); rec != image.l0.rend(); ++rec) {
    const PersistedL0& entry = *rec;
    if (entry.key.empty() || entry.key.size() > l0->max_key_bytes()) {
      ++s->skipped;
      continue;
    }
    Result<term::TermRef> raw = ParseBounded(entry.raw_text, options);
    Result<term::TermRef> plan = ParseBounded(entry.plan_text, options);
    if (!raw.ok() || !plan.ok()) {
      ++s->skipped;
      continue;
    }
    if (options.verify_load && session != nullptr &&
        ProvenDivergent(session, *raw, *plan, options, s)) {
      continue;
    }
    l0->Insert(entry.key,
               {std::move(raw).value(), std::move(plan).value(),
                entry.columns, catalog_epoch, rules_epoch},
               entry.hits);
    ++s->ok;
    ++installed;
  }
  return installed;
}

}  // namespace eds::srv
