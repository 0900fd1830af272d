// The robustd wire protocol: length-prefixed binary frames over a stream
// socket (Unix or TCP).
//
// Every frame is a fixed 16-byte little-endian header followed by
// `payloadBytes` of payload:
//
//   offset  size  field
//   0       4     magic "RBD1" (0x31444252 LE)
//   4       1     protocol version (kProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0
//   8       4     payloadBytes (<= WireLimits::maxFrameBytes)
//   12      4     requestId — echoed verbatim in the reply so clients can
//                 pipeline requests
//
// The payload grammar per type is documented on each encode/decode pair
// below. Everything crossing the socket is UNTRUSTED: decoding routes every
// malformed field through util::Diagnostics (PR 3 discipline), so a bad
// frame produces a categorized RejectCategory — never a crash, never an
// unbounded allocation (counts are cross-checked against the byte budget
// before any array is materialized). A malformed HEADER is fatal for the
// connection (framing is lost); a malformed PAYLOAD inside a well-framed
// frame is not (the session continues).
//
// REGISTER carries core's canonical spec encoding (core::encodeProblemSpec:
// the affine, single-subspace form; callable features cannot cross a
// process boundary). Its FNV-1a hash is the problem's content key
// (CompiledProblem::contentKey), so byte-identical specs share one
// CompiledProblem cache entry across tenants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/util/bytes.hpp"
#include "robust/util/diagnostics.hpp"

namespace robust::net {

inline constexpr std::uint32_t kMagic = 0x31444252u;  // "RBD1" little-endian
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;

enum class FrameType : std::uint8_t {
  // client -> server
  Hello = 0x01,     ///< declare tenant name + demand; must be first
  Register = 0x02,  ///< ProblemSpec payload -> content-hash key
  Analyze = 0x03,   ///< perturbation batch against a registered key
  Bye = 0x04,       ///< graceful close
  // client -> server, admin introspection (no HELLO required; answered on
  // the IO thread without touching the compute pool)
  Stats = 0x05,      ///< request a robust.stats JSON snapshot
  TraceDump = 0x06,  ///< drain the flight recorder as Chrome-trace JSON
  // server -> client
  HelloOk = 0x81,
  RegisterOk = 0x82,
  Result = 0x83,
  ByeOk = 0x84,
  StatsOk = 0x85,      ///< payload: robust.stats JSON text
  TraceDumpOk = 0x86,  ///< payload: Chrome trace-event JSON text
  Reject = 0xbf,  ///< categorized rejection of the request it echoes
};

/// Schema identity of the STATS snapshot document. Bumped when the JSON
/// layout changes incompatibly; clients send the version they speak and
/// the server rejects (Structure, non-fatal) any other.
inline constexpr std::uint32_t kStatsSchemaVersion = 1;
inline constexpr std::string_view kStatsSchemaName = "robust.stats";

/// True for the frame types a client may send.
[[nodiscard]] bool isClientFrameType(std::uint8_t type) noexcept;

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::Hello;
  std::uint32_t payloadBytes = 0;
  std::uint32_t requestId = 0;
};

/// Hard caps on everything a frame can ask the server to materialize.
/// Every limit is checked before the corresponding allocation.
struct WireLimits {
  std::uint32_t maxFrameBytes = 64u << 20;  ///< payload bytes per frame
  std::uint32_t maxDim = 1u << 20;          ///< perturbation components
  std::uint32_t maxFeatures = 1u << 16;     ///< features per spec
  std::uint32_t maxConstraints = 1u << 12;  ///< constraints per spec
  std::uint32_t maxInstances = 1u << 20;    ///< instances per ANALYZE batch
  std::uint32_t maxNameBytes = 256;         ///< spec/tenant name length
  std::uint32_t maxDeclaredDemand = 1u << 16;  ///< HELLO demand cap
};

// --------------------------------------------------------------- header

/// Appends the 16 header bytes for `header` to `out`.
void encodeFrameHeader(const FrameHeader& header,
                       std::vector<std::uint8_t>& out);

/// Decodes and validates a header from exactly kHeaderBytes bytes. Throws
/// util::ParseError (Format: bad magic/type, Structure: bad version or
/// reserved bits, Domain: payload over limits.maxFrameBytes) — all fatal
/// for the connection, since framing cannot be trusted afterwards.
[[nodiscard]] FrameHeader decodeFrameHeader(
    std::span<const std::uint8_t> bytes, const WireLimits& limits,
    const util::Diagnostics& diag);

// ------------------------------------------------------------- payloads

/// HELLO payload: u32 declaredDemand in [1, maxDeclaredDemand]; u16
/// nameLen; nameLen bytes of printable-ASCII tenant name.
void encodeHello(std::uint32_t declaredDemand, const std::string& tenant,
                 std::vector<std::uint8_t>& out);
struct HelloRequest {
  std::uint32_t declaredDemand = 1;
  std::string tenant;
};
[[nodiscard]] HelloRequest decodeHello(std::span<const std::uint8_t> payload,
                                       const WireLimits& limits,
                                       const util::Diagnostics& diag);

/// HELLO_OK payload: u32 protocol version; u64 session id.
void encodeHelloOk(std::uint64_t sessionId, std::vector<std::uint8_t>& out);
struct HelloReply {
  std::uint32_t protocolVersion = 0;
  std::uint64_t sessionId = 0;
};
[[nodiscard]] HelloReply decodeHelloOk(std::span<const std::uint8_t> payload,
                                       const util::Diagnostics& diag);

/// REGISTER payload: the canonical spec encoding (grammar on
/// core::encodeProblemSpec, whose refusals are caller bugs, not hostile
/// input). decodeProblemSpec validates hostile bytes against `limits`:
/// floating-point fields must be finite (Domain), norm weights positive,
/// and boundsMask must name at least one bound.
using core::encodeProblemSpec;
[[nodiscard]] core::ProblemSpec decodeProblemSpec(
    std::span<const std::uint8_t> payload, const WireLimits& limits,
    const util::Diagnostics& diag);

/// REGISTER_OK payload: u64 key; u8 fromCache.
void encodeRegisterOk(std::uint64_t key, bool fromCache,
                      std::vector<std::uint8_t>& out);
struct RegisterReply {
  std::uint64_t key = 0;
  bool fromCache = false;
};
[[nodiscard]] RegisterReply decodeRegisterOk(
    std::span<const std::uint8_t> payload, const util::Diagnostics& diag);

/// ANALYZE payload: u64 problemKey; u32 instanceCount; u32 reserved = 0;
/// f64[instanceCount * dim] origins (instance-contiguous). The dimension is
/// the registered problem's; decodeAnalyzeHead validates everything that
/// does not need the problem, the server cross-checks the payload size
/// against the key's dimension (Structure on mismatch).
void encodeAnalyze(std::uint64_t key, std::uint32_t instanceCount,
                   std::span<const double> origins,
                   std::vector<std::uint8_t>& out);
struct AnalyzeHead {
  std::uint64_t key = 0;
  std::uint32_t instanceCount = 0;
};
inline constexpr std::size_t kAnalyzeHeadBytes = 16;
[[nodiscard]] AnalyzeHead decodeAnalyzeHead(
    std::span<const std::uint8_t> payload, const WireLimits& limits,
    const util::Diagnostics& diag);

/// RESULT payload: u32 instanceCount; u32 reserved = 0; instanceCount x
/// { f64 rho; u32 bindingFeature; u8 flags }. Flag bit 0 = metric floored
/// (discrete parameter), bit 1 = infeasible origin (hard constraint
/// violated at the operating point; rho is 0).
struct WireResult {
  double rho = 0.0;
  std::uint32_t bindingFeature = 0;
  bool floored = false;
  bool infeasibleOrigin = false;
};
void encodeResult(std::span<const WireResult> results,
                  std::vector<std::uint8_t>& out);
[[nodiscard]] std::vector<WireResult> decodeResult(
    std::span<const std::uint8_t> payload, const WireLimits& limits,
    const util::Diagnostics& diag);

/// STATS / TRACE_DUMP request payload: u32 schemaVersion (must equal
/// kStatsSchemaVersion — Structure otherwise); u32 reserved = 0. The
/// replies carry UTF-8 JSON text as their whole payload: a schema-versioned
/// robust.stats document for STATS_OK, a Chrome trace-event document (the
/// drained flight recorder) for TRACE_DUMP_OK. Both replies respect
/// WireLimits::maxFrameBytes like every other frame.
void encodeAdminRequest(std::uint32_t schemaVersion,
                        std::vector<std::uint8_t>& out);
[[nodiscard]] std::uint32_t decodeAdminRequest(
    std::span<const std::uint8_t> payload, const util::Diagnostics& diag);

/// REJECT payload: u8 category (util::RejectCategory); u8 fatal; u16
/// reserved = 0; u32 messageBytes; message. `fatal` means the server is
/// about to close this connection (framing lost); non-fatal rejects answer
/// exactly one request and the session continues.
struct RejectInfo {
  util::RejectCategory category = util::RejectCategory::Other;
  bool fatal = false;
  std::string message;
};
void encodeReject(const RejectInfo& reject, std::vector<std::uint8_t>& out);
[[nodiscard]] RejectInfo decodeReject(std::span<const std::uint8_t> payload,
                                      const util::Diagnostics& diag);

/// FNV-1a 64-bit: the content key of a canonical spec encoding.
using util::fnv1a;

/// Convenience: a complete frame (header + payload) ready to write.
[[nodiscard]] std::vector<std::uint8_t> buildFrame(
    FrameType type, std::uint32_t requestId,
    std::span<const std::uint8_t> payload);

}  // namespace robust::net
