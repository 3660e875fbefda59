#ifndef EDS_NET_PROTOCOL_H_
#define EDS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "srv/service.h"

namespace eds::net {

// The EDS wire protocol, v1. Every message is one frame using the persist
// codec's record framing (srv/codec.h):
//
//   [u32 payload_len][u32 payload_crc][payload]
//
// with payload = [u8 type][u64 request_id][body]. Integers are
// little-endian; strings are [u32 len][bytes] (codec Encoder/Decoder). The
// CRC is the same zlib-compatible CRC-32 the persist file uses, so a torn
// or bit-flipped frame is detected before any field is parsed. request_id
// is chosen by the client and echoed on the response; CANCEL names the
// request to cancel in its body. See docs/network.md for the full spec.
//
// Conversation shape:
//
//   client: HELLO(version, client_name, tenant)
//   server: HELLO_OK(version, session_id, server_info)   | ERROR + close
//   client: QUERY(esql) / EXEC(script) / STATS / CANCEL(id) ...
//   server: RESULT / STATS_RESULT (any order across requests)
//   client: GOODBYE          server: GOODBYE_OK + close

inline constexpr uint32_t kProtocolVersion = 1;
// Frames larger than this are a protocol error (connection closed): bounds
// both the server's per-connection buffering and the decoder's allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;
// A frame's payload is [u8 type][u64 request_id][body]; its length, which
// max_frame_bytes bounds, is the body's plus this.
inline constexpr size_t kFrameHeaderBytes = 1 + 8;
// Longest tenant id a HELLO may carry. Tenant ids key per-tenant server
// state (admission stats, weight lookups), so a client-chosen string
// must not be an unbounded memory-growth vector.
inline constexpr size_t kMaxTenantIdBytes = 128;

enum class MsgType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kQuery = 3,
  kResult = 4,
  kCancel = 5,
  kStats = 6,
  kStatsResult = 7,
  kExec = 8,
  kGoodbye = 9,
  kGoodbyeOk = 10,
  kError = 11,  // protocol-level failure; the server closes after sending
};

struct Hello {
  uint32_t version = kProtocolVersion;
  std::string client_name;
  std::string tenant;  // weighted admission id; "" = default tenant
};

struct HelloOk {
  uint32_t version = kProtocolVersion;
  uint64_t session_id = 0;
  std::string server_info;
};

struct QueryMsg {
  std::string esql;
};

struct ExecMsg {
  std::string script;  // DDL/INSERT batch for QueryService::ApplyDdl
};

struct CancelMsg {
  uint64_t target_request = 0;
};

// RESULT carries either an error string or the rendered result set plus
// serving metadata. Rows travel as text (Value::ToString per cell): the
// concurrent-client stress proves byte-identical bags against in-process
// serving rendered through the same function.
struct ResultMsg {
  bool ok = false;
  std::string error;  // set when !ok

  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  bool l0_hit = false;
  bool cache_hit = false;
  uint64_t catalog_epoch = 0;  // serving-snapshot epochs (snapshot pinning
  uint64_t rules_epoch = 0;    // is observable on the wire)
  uint64_t serve_ns = 0;
};

struct StatsResult {
  std::string prometheus;  // text exposition, same as eds_stat scrapes
};

struct ErrorMsg {
  std::string message;
};

// ---- frame assembly ----

// Appends one complete frame (codec record around [type][request_id][body])
// to `out`.
void AppendFrame(MsgType type, uint64_t request_id, std::string_view body,
                 std::string* out);

// One parsed frame.
struct Frame {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  std::string body;
};

enum class FrameStatus {
  kOk,        // *out filled; consumed bytes erased from *buffer
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kBad,       // malformed (oversize length, bad CRC, bad type): close
};

// Streaming extraction: pulls the first complete frame out of `buffer`
// (erasing its bytes) or reports kNeedMore/kBad. `error` (optional) gets a
// description on kBad. Tolerates arbitrary garbage without reading out of
// bounds — the codec chaos patterns (truncation, bit flips, giant lengths)
// land on exactly this function.
FrameStatus NextFrame(std::string* buffer, size_t max_frame_bytes, Frame* out,
                      std::string* error);

// ---- body encode/decode (bodies only; frame handled above) ----

std::string EncodeHello(const Hello& m);
std::string EncodeHelloOk(const HelloOk& m);
std::string EncodeQuery(const QueryMsg& m);
std::string EncodeExec(const ExecMsg& m);
std::string EncodeCancel(const CancelMsg& m);
std::string EncodeResult(const ResultMsg& m);
std::string EncodeStatsResult(const StatsResult& m);
std::string EncodeError(const ErrorMsg& m);
// HELLO/GOODBYE/STATS/GOODBYE_OK have empty bodies.

Result<Hello> DecodeHello(std::string_view body);
Result<HelloOk> DecodeHelloOk(std::string_view body);
Result<QueryMsg> DecodeQuery(std::string_view body);
Result<ExecMsg> DecodeExec(std::string_view body);
Result<CancelMsg> DecodeCancel(std::string_view body);
Result<ResultMsg> DecodeResult(std::string_view body);
Result<StatsResult> DecodeStatsResult(std::string_view body);
Result<ErrorMsg> DecodeError(std::string_view body);

// ---- result rendering ----

// Renders a served query into the wire form. Both the server and the
// byte-identical stress tests go through this one function, so "equal over
// the wire" and "equal in process" mean the same thing.
ResultMsg RenderServed(const srv::ServedQuery& served);

// Renders one executor row as text cells (Value::ToString per cell).
std::vector<std::string> RenderRow(const exec::Row& row);

}  // namespace eds::net

#endif  // EDS_NET_PROTOCOL_H_
