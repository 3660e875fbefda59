#ifndef EDS_SRV_PERSIST_H_
#define EDS_SRV_PERSIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/session.h"
#include "srv/codec.h"
#include "srv/l0_cache.h"
#include "srv/plan_cache.h"

namespace eds::srv {

// Crash-safe persistence of the serving caches: the hot entries of the
// structural plan cache (srv/plan_cache.h) and the L0 exact-text cache
// (srv/l0_cache.h) are written to a checksummed record log so a restarted
// service starts warm — repeated queries skip the rewrite phase on their
// first arrival instead of their second.
//
// Terms are serialized as their textual form (term::Term::ToString) and
// read back through the ordinary term parser, so the on-disk format is
// human-greppable and the parser — hardened against adversarial input
// elsewhere — is the only deserializer. At save time every term must
// survive the print->parse round trip back to the *identical* hash-consed
// pointer; entries that do not (NULL constants, non-finite reals,
// collection constants) are skipped and counted, never written wrong.
//
// File layout (all integers little-endian, see srv/codec.h):
//   FileHeader: magic "EDSC", version, flags, catalog epoch, rules epoch,
//     CRC32 of the preceding bytes.
//   Records: [u32 len][u32 payload CRC32][payload]*, payload kinds:
//     kPlanRecord: u8 kind, u64 hits, u64 rewrite_ns, str template,
//       str normal form, u32 n, n param strings.
//     kL0Record:  u8 kind, u64 hits, str normalized key, str raw plan,
//       str optimized plan, u32 n, n column names.
//
// Crash safety: SavePersistFile serializes to memory, writes `path`.tmp,
// fsyncs, and renames over `path` (then best-effort fsyncs the directory)
// — a crash at any point leaves either the complete old file or the
// complete new one. The loader additionally survives files that were NOT
// written this way (a torn tail from a copied or truncated file loads as
// its surviving prefix; a record whose CRC fails is skipped and the read
// continues at the next frame).
//
// Staleness: the header records the catalog/rules epochs the plans were
// rewritten under. A loader whose session reports different epochs counts
// every record as stale and loads nothing — epochs are in-memory counters,
// so warm restart requires the restarted process to replay the same DDL /
// constraint script (the deployment pattern this targets: a fleet booting
// a fixed schema).

// Caps applied when building and loading persisted images. The defaults
// are generous for real workloads and tight enough that a hostile file
// cannot balloon memory.
struct PersistOptions {
  // Keep only the top-k hottest entries of each cache (by per-entry hit
  // count); 0 keeps everything admitted by the size caps.
  size_t top_k = 256;
  // Terms whose printed form exceeds this are not persisted (save) and
  // records declaring longer strings are skipped (load).
  size_t max_text_bytes = 1 << 20;
  // Per-record payload ceiling; longer frames are torn (load stops).
  size_t max_record_bytes = 4u << 20;
  // Parsed terms above this node count are rejected at load (a nested-term
  // bomb parses cheaply but must not be admitted into the cache).
  size_t max_term_nodes = 1 << 17;
  // Re-verify each loaded plan by differential execution before admitting
  // it (LoadPersistFile ignores this; WarmServiceCaches honors it): the
  // persisted sample literals are substituted into both the template and
  // the normal form, both ground plans run under `verify_limits`, and the
  // sorted row bags must match. Only a proven divergence rejects; errors
  // and budget trips on either side admit the entry unverified (counted in
  // LoadStats::unverified).
  bool verify_load = false;
  gov::GovernorLimits verify_limits;
};

// One persisted structural-cache entry, still in textual form.
struct PersistedPlan {
  std::string tmpl_text;
  std::string nf_text;
  std::vector<std::string> param_texts;  // sample literals, index i == $CQi
  uint64_t hits = 0;
  uint64_t rewrite_ns = 0;
};

// One persisted L0 exact-text entry, still in textual form.
struct PersistedL0 {
  std::string key;  // NormalizeQueryText output
  std::string raw_text;
  std::string plan_text;
  std::vector<std::string> columns;
  uint64_t hits = 0;
};

// A decoded (or to-be-encoded) cache file.
struct CacheImage {
  FileHeader header;
  std::vector<PersistedPlan> plans;
  std::vector<PersistedL0> l0;
};

// Tallies from building/saving an image, exported as persist.save.*.
struct SaveStats {
  uint64_t plans = 0;     // plan records written
  uint64_t l0 = 0;        // L0 records written
  uint64_t skipped = 0;   // entries dropped: round-trip failure / size cap
  uint64_t stale = 0;     // entries dropped: epoch mismatch at snapshot
  uint64_t bytes = 0;     // encoded file size
};

// Tallies from loading a file, exported as persist.load.*.
struct LoadStats {
  uint64_t ok = 0;          // records admitted into the caches
  uint64_t skipped = 0;     // malformed / unparseable / oversized records
  uint64_t stale = 0;       // records dropped for epoch mismatch
  uint64_t rejected = 0;    // differential verification proved divergence
  uint64_t unverified = 0;  // verify requested but not provable (admitted)
  bool torn_tail = false;   // the file ended mid-record (prefix loaded)
};

// Snapshots both caches into a textual image under `header`'s epochs.
// Entries failing the print->parse round trip or the size caps are skipped
// (counted); entries built under other epochs are dropped as stale.
CacheImage BuildCacheImage(const PlanCache& cache, const L0Cache& l0,
                           const FileHeader& header,
                           const PersistOptions& options,
                           SaveStats* stats = nullptr);

// Encodes the image to the on-disk byte format.
std::string EncodeCacheImage(const CacheImage& image,
                             const PersistOptions& options,
                             SaveStats* stats = nullptr);

// Atomically replaces `path` with `bytes` (tmp file + fsync + rename).
// Fail points: "persist.save" (before the tmp write), "persist.rename"
// (after fsync, before the rename) — both leave the previous file intact.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

// BuildCacheImage + EncodeCacheImage + WriteFileAtomic.
Status SavePersistFile(const std::string& path, const PlanCache& cache,
                       const L0Cache& l0, const FileHeader& header,
                       const PersistOptions& options,
                       SaveStats* stats = nullptr);

// Reads and decodes `path` with maximal suspicion: header validated by
// magic + CRC + version; each record CRC-checked, bounds-checked, and
// length-capped before any allocation; malformed records are skipped and
// counted; a torn tail ends the read with everything before it intact.
// Fails (non-OK) only when the file is unreadable or its header is
// invalid — a file with a good header and a rotten body loads as an image
// with fewer records. The per-record fail point "persist.load.record"
// turns records into counted skips. Record payloads here are *text*; terms
// are not parsed yet (that happens in WarmServiceCaches, against a live
// session, or in eds_cachectl --verify).
Result<CacheImage> LoadPersistFile(const std::string& path,
                                   const PersistOptions& options,
                                   LoadStats* stats = nullptr);

// Parses a loaded image's terms and installs the entries that survive into
// the caches, coldest first, seeding each with its persisted hit count.
// It inserts directly, so restored entries bypass QueryService's admission
// rule and hit on their first sighting. Records whose
// epochs (image header) differ from `catalog_epoch`/`rules_epoch` are
// counted stale and nothing is installed from them. With
// options.verify_load set, each plan additionally passes ground
// differential execution against `session` before admission (see
// PersistOptions::verify_load). Returns the number of entries installed.
size_t WarmServiceCaches(const CacheImage& image, exec::Session* session,
                         PlanCache* cache, L0Cache* l0,
                         uint64_t catalog_epoch, uint64_t rules_epoch,
                         const PersistOptions& options,
                         LoadStats* stats = nullptr);

}  // namespace eds::srv

#endif  // EDS_SRV_PERSIST_H_
