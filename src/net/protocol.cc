#include "net/protocol.h"

#include <cstring>

#include "srv/codec.h"

namespace eds::net {

namespace {

// Bodies are already bounded by NextFrame's frame cap; this caps individual
// inner strings as defense in depth against a corrupt length prefix.
constexpr size_t kMaxStringBytes = kDefaultMaxFrameBytes;

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kError);
}

// The codec writes little-endian explicitly; mirror its decode so the peek
// at the length prefix stays correct on big-endian hosts.
uint32_t ReadLe32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

}  // namespace

void AppendFrame(MsgType type, uint64_t request_id, std::string_view body,
                 std::string* out) {
  std::string payload;
  payload.reserve(kFrameHeaderBytes + body.size());
  srv::Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU64(request_id);
  payload.append(body.data(), body.size());
  srv::AppendRecord(payload, out);
}

FrameStatus NextFrame(std::string* buffer, size_t max_frame_bytes, Frame* out,
                      std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return FrameStatus::kBad;
  };
  if (buffer->size() < 8) return FrameStatus::kNeedMore;
  const uint32_t len = ReadLe32(buffer->data());
  if (len > max_frame_bytes) return fail("oversize frame length");
  if (buffer->size() < 8u + len) return FrameStatus::kNeedMore;
  // The full record is buffered: let the codec verify the CRC.
  size_t pos = 0;
  srv::RecordRead rec = srv::ReadRecord(*buffer, &pos, max_frame_bytes);
  switch (rec.status) {
    case srv::RecordStatus::kOk:
      break;
    case srv::RecordStatus::kBadCrc:
      // Persist skips rotten records; a stream cannot — either the
      // connection desynced or the peer is corrupt, so the caller closes.
      return fail("frame CRC mismatch");
    default:
      return fail("torn frame");
  }
  srv::Decoder dec(rec.payload, kMaxStringBytes);
  Result<uint8_t> type = dec.GetU8();
  if (!type.ok()) return fail("frame too short for type");
  if (!ValidType(*type)) return fail("unknown message type");
  Result<uint64_t> request_id = dec.GetU64();
  if (!request_id.ok()) return fail("frame too short for request id");
  out->type = static_cast<MsgType>(*type);
  out->request_id = *request_id;
  out->body.assign(rec.payload.substr(1 + 8));
  buffer->erase(0, pos);
  return FrameStatus::kOk;
}

// ---- bodies ----

std::string EncodeHello(const Hello& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutU32(m.version);
  enc.PutString(m.client_name);
  enc.PutString(m.tenant);
  return out;
}

Result<Hello> DecodeHello(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  Hello m;
  EDS_ASSIGN_OR_RETURN(m.version, dec.GetU32());
  EDS_ASSIGN_OR_RETURN(m.client_name, dec.GetString());
  EDS_ASSIGN_OR_RETURN(m.tenant, dec.GetString());
  return m;
}

std::string EncodeHelloOk(const HelloOk& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutU32(m.version);
  enc.PutU64(m.session_id);
  enc.PutString(m.server_info);
  return out;
}

Result<HelloOk> DecodeHelloOk(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  HelloOk m;
  EDS_ASSIGN_OR_RETURN(m.version, dec.GetU32());
  EDS_ASSIGN_OR_RETURN(m.session_id, dec.GetU64());
  EDS_ASSIGN_OR_RETURN(m.server_info, dec.GetString());
  return m;
}

std::string EncodeQuery(const QueryMsg& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutString(m.esql);
  return out;
}

Result<QueryMsg> DecodeQuery(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  QueryMsg m;
  EDS_ASSIGN_OR_RETURN(m.esql, dec.GetString());
  return m;
}

std::string EncodeExec(const ExecMsg& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutString(m.script);
  return out;
}

Result<ExecMsg> DecodeExec(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  ExecMsg m;
  EDS_ASSIGN_OR_RETURN(m.script, dec.GetString());
  return m;
}

std::string EncodeCancel(const CancelMsg& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutU64(m.target_request);
  return out;
}

Result<CancelMsg> DecodeCancel(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  CancelMsg m;
  EDS_ASSIGN_OR_RETURN(m.target_request, dec.GetU64());
  return m;
}

std::string EncodeResult(const ResultMsg& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutU8(m.ok ? 1 : 0);
  if (!m.ok) {
    enc.PutString(m.error);
    return out;
  }
  enc.PutU8(m.l0_hit ? 1 : 0);
  enc.PutU8(m.cache_hit ? 1 : 0);
  enc.PutU64(m.catalog_epoch);
  enc.PutU64(m.rules_epoch);
  enc.PutU64(m.serve_ns);
  enc.PutU32(static_cast<uint32_t>(m.columns.size()));
  for (const std::string& c : m.columns) enc.PutString(c);
  enc.PutU32(static_cast<uint32_t>(m.rows.size()));
  // The decoder reads exactly columns.size() cells per row; a ragged row
  // written verbatim would silently desync every cell after it. Pad or
  // truncate so a malformed ResultMsg can never corrupt the stream.
  const size_t ncols = m.columns.size();
  for (const std::vector<std::string>& row : m.rows) {
    for (size_t c = 0; c < ncols; ++c) {
      enc.PutString(c < row.size() ? std::string_view(row[c])
                                   : std::string_view());
    }
  }
  return out;
}

Result<ResultMsg> DecodeResult(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  ResultMsg m;
  EDS_ASSIGN_OR_RETURN(uint8_t ok, dec.GetU8());
  m.ok = ok != 0;
  if (!m.ok) {
    EDS_ASSIGN_OR_RETURN(m.error, dec.GetString());
    return m;
  }
  EDS_ASSIGN_OR_RETURN(uint8_t l0, dec.GetU8());
  m.l0_hit = l0 != 0;
  EDS_ASSIGN_OR_RETURN(uint8_t ch, dec.GetU8());
  m.cache_hit = ch != 0;
  EDS_ASSIGN_OR_RETURN(m.catalog_epoch, dec.GetU64());
  EDS_ASSIGN_OR_RETURN(m.rules_epoch, dec.GetU64());
  EDS_ASSIGN_OR_RETURN(m.serve_ns, dec.GetU64());
  EDS_ASSIGN_OR_RETURN(uint32_t ncols, dec.GetU32());
  // A corrupt count cannot force a giant allocation: each cell is at least
  // a 4-byte length prefix, so a count past the actual byte span is a lie.
  if (ncols > body.size()) {
    return Status::RuntimeError("RESULT column count exceeds frame");
  }
  m.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    EDS_ASSIGN_OR_RETURN(std::string c, dec.GetString());
    m.columns.push_back(std::move(c));
  }
  EDS_ASSIGN_OR_RETURN(uint32_t nrows, dec.GetU32());
  if (nrows > body.size()) {
    return Status::RuntimeError("RESULT row count exceeds frame");
  }
  m.rows.reserve(nrows);
  for (uint32_t r = 0; r < nrows; ++r) {
    std::vector<std::string> row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      EDS_ASSIGN_OR_RETURN(std::string cell, dec.GetString());
      row.push_back(std::move(cell));
    }
    m.rows.push_back(std::move(row));
  }
  if (!dec.done()) {
    return Status::RuntimeError("trailing bytes after RESULT body");
  }
  return m;
}

std::string EncodeStatsResult(const StatsResult& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutString(m.prometheus);
  return out;
}

Result<StatsResult> DecodeStatsResult(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  StatsResult m;
  EDS_ASSIGN_OR_RETURN(m.prometheus, dec.GetString());
  return m;
}

std::string EncodeError(const ErrorMsg& m) {
  std::string out;
  srv::Encoder enc(&out);
  enc.PutString(m.message);
  return out;
}

Result<ErrorMsg> DecodeError(std::string_view body) {
  srv::Decoder dec(body, kMaxStringBytes);
  ErrorMsg m;
  EDS_ASSIGN_OR_RETURN(m.message, dec.GetString());
  return m;
}

std::vector<std::string> RenderRow(const exec::Row& row) {
  std::vector<std::string> out;
  out.reserve(row.size());
  for (const value::Value& v : row) out.push_back(v.ToString());
  return out;
}

ResultMsg RenderServed(const srv::ServedQuery& served) {
  ResultMsg m;
  m.ok = true;
  m.columns = served.result.columns;
  m.rows.reserve(served.result.rows.size());
  for (const exec::Row& row : served.result.rows) {
    m.rows.push_back(RenderRow(row));
  }
  m.l0_hit = served.l0_hit;
  m.cache_hit = served.cache_hit;
  m.catalog_epoch = served.catalog_epoch;
  m.rules_epoch = served.rules_epoch;
  m.serve_ns = served.serve_ns;
  return m;
}

}  // namespace eds::net
