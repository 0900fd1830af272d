#include "robust/net/wire.hpp"

#include <cmath>
#include <limits>

#include "robust/core/feature.hpp"
#include "robust/core/report.hpp"
#include "robust/util/error.hpp"

namespace robust::net {

namespace {

using util::Diagnostics;
using util::RejectCategory;
using util::putBytes;
using util::putF64;
using util::putU16;
using util::putU32;
using util::putU64;
using util::putU8;

/// Bounds-checked little-endian cursor over one untrusted payload. Every
/// under-run fails through the Diagnostics context with the 1-based byte
/// position of the field that could not be read.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const Diagnostics& diag)
      : bytes_(bytes), diag_(diag) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      diag_.fail(RejectCategory::Truncated, 0, pos_ + 1,
                 std::string("payload ends inside ") + what + " (need " +
                     std::to_string(n) + " bytes, have " +
                     std::to_string(remaining()) + ")");
    }
  }

  template <class T>
  T get(const char* what) {
    need(sizeof(T), what);
    const T v = util::loadLE<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  std::uint8_t u8(const char* what) { return get<std::uint8_t>(what); }
  std::uint16_t u16(const char* what) { return get<std::uint16_t>(what); }
  std::uint32_t u32(const char* what) { return get<std::uint32_t>(what); }
  std::uint64_t u64(const char* what) { return get<std::uint64_t>(what); }
  double f64(const char* what) { return get<double>(what); }
  /// A finite double; non-finite payloads are Domain rejects so NaN can
  /// never leak past the service boundary (mirrors core::InputPolicy).
  double finiteF64(const char* what) {
    const std::size_t at = pos_;
    const double v = f64(what);
    if (!std::isfinite(v)) {
      diag_.fail(RejectCategory::Domain, 0, at + 1,
                 std::string(what) + " is not finite");
    }
    return v;
  }
  std::string name(std::uint32_t maxBytes, const char* what) {
    const std::size_t lenAt = pos_;
    const std::uint16_t len = u16(what);
    if (len > maxBytes) {
      diag_.fail(RejectCategory::Domain, 0, lenAt + 1,
                 std::string(what) + " length " + std::to_string(len) +
                     " exceeds the cap of " + std::to_string(maxBytes));
    }
    need(len, what);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(out[i]);
      if (c < 0x20 || c == 0x7f) {
        diag_.fail(RejectCategory::Domain, 0, pos_ + i + 1,
                   std::string(what) +
                       " contains a control character (byte 0x" +
                       std::to_string(static_cast<unsigned>(c)) + ")");
      }
    }
    pos_ += len;
    return out;
  }
  void expectEnd(const char* what) const {
    if (remaining() != 0) {
      diag_.fail(RejectCategory::Structure, 0, pos_ + 1,
                 std::to_string(remaining()) +
                     " trailing payload bytes after " + what);
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const Diagnostics& diag_;
  std::size_t pos_ = 0;
};

/// Reads `count` finite doubles into a fresh vector. `count` has already
/// been validated against the caps; the per-element truncation check keeps
/// hostile counts from allocating past the payload size.
num::Vec finiteVec(Reader& reader, std::size_t count, const char* what) {
  reader.need(count * 8, what);  // fail before allocating
  num::Vec out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(reader.finiteF64(what));
  }
  return out;
}

}  // namespace

bool isClientFrameType(std::uint8_t type) noexcept {
  switch (static_cast<FrameType>(type)) {
    case FrameType::Hello:
    case FrameType::Register:
    case FrameType::Analyze:
    case FrameType::Bye:
    case FrameType::Stats:
    case FrameType::TraceDump:
      return true;
    default:
      return false;
  }
}

// ----------------------------------------------------------------- header

void encodeFrameHeader(const FrameHeader& header,
                       std::vector<std::uint8_t>& out) {
  putU32(out, kMagic);
  putU8(out, header.version);
  putU8(out, static_cast<std::uint8_t>(header.type));
  putU16(out, 0);
  putU32(out, header.payloadBytes);
  putU32(out, header.requestId);
}

FrameHeader decodeFrameHeader(std::span<const std::uint8_t> bytes,
                              const WireLimits& limits,
                              const Diagnostics& diag) {
  Reader reader(bytes, diag);
  reader.need(kHeaderBytes, "frame header");
  const std::uint32_t magic = reader.u32("magic");
  if (magic != kMagic) {
    diag.fail(RejectCategory::Format, 0, 1,
              "bad frame magic (not a robustd stream)");
  }
  FrameHeader header;
  header.version = reader.u8("version");
  if (header.version != kProtocolVersion) {
    diag.fail(RejectCategory::Structure, 0, 5,
              "unsupported protocol version " +
                  std::to_string(header.version) + " (speaking " +
                  std::to_string(kProtocolVersion) + ")");
  }
  const std::uint8_t type = reader.u8("frame type");
  header.type = static_cast<FrameType>(type);
  const std::uint16_t reserved = reader.u16("reserved field");
  if (reserved != 0) {
    diag.fail(RejectCategory::Structure, 0, 7,
              "reserved header bytes must be zero");
  }
  header.payloadBytes = reader.u32("payload length");
  if (header.payloadBytes > limits.maxFrameBytes) {
    diag.fail(RejectCategory::Domain, 0, 9,
              "payload of " + std::to_string(header.payloadBytes) +
                  " bytes exceeds the frame cap of " +
                  std::to_string(limits.maxFrameBytes));
  }
  header.requestId = reader.u32("request id");
  return header;
}

// ---------------------------------------------------------------- payloads

void encodeHello(std::uint32_t declaredDemand, const std::string& tenant,
                 std::vector<std::uint8_t>& out) {
  putU32(out, declaredDemand);
  putU16(out, static_cast<std::uint16_t>(tenant.size()));
  putBytes(out, tenant.data(), tenant.size());
}

HelloRequest decodeHello(std::span<const std::uint8_t> payload,
                         const WireLimits& limits, const Diagnostics& diag) {
  Reader reader(payload, diag);
  HelloRequest hello;
  hello.declaredDemand = reader.u32("declared demand");
  if (hello.declaredDemand == 0 ||
      hello.declaredDemand > limits.maxDeclaredDemand) {
    diag.fail(RejectCategory::Domain, 0, 1,
              "declared demand " + std::to_string(hello.declaredDemand) +
                  " outside [1, " + std::to_string(limits.maxDeclaredDemand) +
                  "]");
  }
  hello.tenant = reader.name(limits.maxNameBytes, "tenant name");
  reader.expectEnd("HELLO");
  return hello;
}

void encodeHelloOk(std::uint64_t sessionId, std::vector<std::uint8_t>& out) {
  putU32(out, kProtocolVersion);
  putU64(out, sessionId);
}

HelloReply decodeHelloOk(std::span<const std::uint8_t> payload,
                         const Diagnostics& diag) {
  Reader reader(payload, diag);
  HelloReply reply;
  reply.protocolVersion = reader.u32("protocol version");
  reply.sessionId = reader.u64("session id");
  reader.expectEnd("HELLO_OK");
  return reply;
}

core::ProblemSpec decodeProblemSpec(std::span<const std::uint8_t> payload,
                                    const WireLimits& limits,
                                    const Diagnostics& diag) {
  Reader reader(payload, diag);
  const std::uint32_t dim = reader.u32("dimension");
  if (dim == 0 || dim > limits.maxDim) {
    diag.fail(RejectCategory::Domain, 0, 1,
              "dimension " + std::to_string(dim) + " outside [1, " +
                  std::to_string(limits.maxDim) + "]");
  }
  const std::uint32_t featureCount = reader.u32("feature count");
  if (featureCount == 0 || featureCount > limits.maxFeatures) {
    diag.fail(RejectCategory::Domain, 0, 5,
              "feature count " + std::to_string(featureCount) +
                  " outside [1, " + std::to_string(limits.maxFeatures) + "]");
  }
  const std::uint32_t constraintCount = reader.u32("constraint count");
  if (constraintCount > limits.maxConstraints) {
    diag.fail(RejectCategory::Domain, 0, 9,
              "constraint count " + std::to_string(constraintCount) +
                  " exceeds the cap of " +
                  std::to_string(limits.maxConstraints));
  }
  // Cheapest possible shape check before anything is allocated: each
  // feature needs at least a weight row, each constraint a coefficient
  // row. Division keeps the product from overflowing (instance_file.cpp
  // uses the same trick against hostile headers).
  const std::size_t perRow = static_cast<std::size_t>(dim) * 8;
  if (payload.size() / perRow <
      static_cast<std::size_t>(featureCount) + constraintCount) {
    diag.fail(RejectCategory::Structure, 0, 1,
              "payload of " + std::to_string(payload.size()) +
                  " bytes cannot hold " + std::to_string(featureCount) +
                  " features and " + std::to_string(constraintCount) +
                  " constraints of dimension " + std::to_string(dim));
  }
  const std::uint8_t norm = reader.u8("norm kind");
  if (norm > 3) {
    diag.fail(RejectCategory::Domain, 0, reader.pos(),
              "norm kind " + std::to_string(norm) + " is not a NormKind");
  }
  const std::uint8_t discrete = reader.u8("discrete flag");
  if (discrete > 1) {
    diag.fail(RejectCategory::Domain, 0, reader.pos(),
              "discrete flag must be 0 or 1");
  }
  if (reader.u16("reserved field") != 0) {
    diag.fail(RejectCategory::Structure, 0, reader.pos() - 1,
              "reserved spec bytes must be zero");
  }

  core::ProblemSpec spec;
  spec.parameter.name = "pi (wire)";
  spec.parameter.discrete = discrete == 1;
  spec.parameter.origin = finiteVec(reader, dim, "origin component");
  spec.options.norm = static_cast<core::NormKind>(norm);
  if (spec.options.norm == core::NormKind::Weighted) {
    const std::size_t at = reader.pos();
    spec.options.normWeights = finiteVec(reader, dim, "norm weight");
    for (std::size_t i = 0; i < dim; ++i) {
      if (spec.options.normWeights[i] <= 0.0) {
        diag.fail(RejectCategory::Domain, 0, at + i * 8 + 1,
                  "norm weight " + util::formatValue(spec.options.normWeights[i]) +
                      " must be positive");
      }
    }
  }
  spec.features.reserve(featureCount);
  for (std::uint32_t f = 0; f < featureCount; ++f) {
    std::string name = reader.name(limits.maxNameBytes, "feature name");
    const std::size_t maskAt = reader.pos();
    const std::uint8_t mask = reader.u8("bounds mask");
    if (mask == 0 || mask > 3) {
      diag.fail(RejectCategory::Structure, 0, maskAt + 1,
                "bounds mask of feature " + std::to_string(f + 1) +
                    " must name at least one bound (1, 2, or 3)");
    }
    core::ToleranceBounds bounds;
    if ((mask & 1) != 0) {
      bounds.min = reader.finiteF64("tolerance bound min");
    }
    if ((mask & 2) != 0) {
      bounds.max = reader.finiteF64("tolerance bound max");
    }
    if (bounds.min && bounds.max && *bounds.min > *bounds.max) {
      diag.fail(RejectCategory::Domain, 0, maskAt + 1,
                "tolerance bounds of feature " + std::to_string(f + 1) +
                    " are inverted (min > max)");
    }
    const double constant = reader.finiteF64("feature constant");
    num::Vec weights = finiteVec(reader, dim, "feature weight");
    spec.features.push_back(core::PerformanceFeature{
        std::move(name),
        core::ImpactFunction::affine(std::move(weights), constant), bounds});
  }
  spec.constraints.reserve(constraintCount);
  for (std::uint32_t c = 0; c < constraintCount; ++c) {
    core::LinearConstraint constraint;
    constraint.name = reader.name(limits.maxNameBytes, "constraint name");
    constraint.bound = reader.finiteF64("constraint bound");
    constraint.coeffs = finiteVec(reader, dim, "constraint coefficient");
    spec.constraints.push_back(std::move(constraint));
  }
  reader.expectEnd("REGISTER");
  return spec;
}

void encodeRegisterOk(std::uint64_t key, bool fromCache,
                      std::vector<std::uint8_t>& out) {
  putU64(out, key);
  putU8(out, fromCache ? 1 : 0);
}

RegisterReply decodeRegisterOk(std::span<const std::uint8_t> payload,
                               const Diagnostics& diag) {
  Reader reader(payload, diag);
  RegisterReply reply;
  reply.key = reader.u64("problem key");
  reply.fromCache = reader.u8("cache flag") != 0;
  reader.expectEnd("REGISTER_OK");
  return reply;
}

void encodeAnalyze(std::uint64_t key, std::uint32_t instanceCount,
                   std::span<const double> origins,
                   std::vector<std::uint8_t>& out) {
  putU64(out, key);
  putU32(out, instanceCount);
  putU32(out, 0);
  putBytes(out, origins.data(), origins.size() * 8);
}

AnalyzeHead decodeAnalyzeHead(std::span<const std::uint8_t> payload,
                              const WireLimits& limits,
                              const Diagnostics& diag) {
  Reader reader(payload, diag);
  AnalyzeHead head;
  head.key = reader.u64("problem key");
  head.instanceCount = reader.u32("instance count");
  if (head.instanceCount == 0 || head.instanceCount > limits.maxInstances) {
    diag.fail(RejectCategory::Domain, 0, 9,
              "instance count " + std::to_string(head.instanceCount) +
                  " outside [1, " + std::to_string(limits.maxInstances) + "]");
  }
  if (reader.u32("reserved field") != 0) {
    diag.fail(RejectCategory::Structure, 0, 13,
              "reserved ANALYZE bytes must be zero");
  }
  return head;
}

void encodeResult(std::span<const WireResult> results,
                  std::vector<std::uint8_t>& out) {
  putU32(out, static_cast<std::uint32_t>(results.size()));
  putU32(out, 0);
  for (const WireResult& r : results) {
    putF64(out, r.rho);
    putU32(out, r.bindingFeature);
    std::uint8_t flags = 0;
    if (r.floored) {
      flags |= 1;
    }
    if (r.infeasibleOrigin) {
      flags |= 2;
    }
    putU8(out, flags);
  }
}

std::vector<WireResult> decodeResult(std::span<const std::uint8_t> payload,
                                     const WireLimits& limits,
                                     const Diagnostics& diag) {
  Reader reader(payload, diag);
  const std::uint32_t count = reader.u32("result count");
  if (count > limits.maxInstances) {
    diag.fail(RejectCategory::Domain, 0, 1,
              "result count " + std::to_string(count) + " exceeds the cap");
  }
  if (reader.u32("reserved field") != 0) {
    diag.fail(RejectCategory::Structure, 0, 5,
              "reserved RESULT bytes must be zero");
  }
  reader.need(static_cast<std::size_t>(count) * 13, "result entries");
  std::vector<WireResult> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireResult r;
    r.rho = reader.f64("rho");  // +inf is a legitimate metric
    r.bindingFeature = reader.u32("binding feature");
    const std::uint8_t flags = reader.u8("result flags");
    if (flags > 3) {
      diag.fail(RejectCategory::Structure, 0, reader.pos(),
                "unknown result flag bits");
    }
    r.floored = (flags & 1) != 0;
    r.infeasibleOrigin = (flags & 2) != 0;
    out.push_back(r);
  }
  reader.expectEnd("RESULT");
  return out;
}

void encodeAdminRequest(std::uint32_t schemaVersion,
                        std::vector<std::uint8_t>& out) {
  putU32(out, schemaVersion);
  putU32(out, 0);
}

std::uint32_t decodeAdminRequest(std::span<const std::uint8_t> payload,
                                 const Diagnostics& diag) {
  Reader reader(payload, diag);
  const std::uint32_t version = reader.u32("stats schema version");
  if (version != kStatsSchemaVersion) {
    diag.fail(RejectCategory::Structure, 0, 1,
              "unsupported stats schema version " + std::to_string(version) +
                  " (speaking " + std::to_string(kStatsSchemaVersion) + ")");
  }
  if (reader.u32("reserved field") != 0) {
    diag.fail(RejectCategory::Structure, 0, 5,
              "reserved admin-request bytes must be zero");
  }
  reader.expectEnd("admin request");
  return version;
}

void encodeReject(const RejectInfo& reject, std::vector<std::uint8_t>& out) {
  putU8(out, static_cast<std::uint8_t>(reject.category));
  putU8(out, reject.fatal ? 1 : 0);
  putU16(out, 0);
  putU32(out, static_cast<std::uint32_t>(reject.message.size()));
  putBytes(out, reject.message.data(), reject.message.size());
}

RejectInfo decodeReject(std::span<const std::uint8_t> payload,
                        const Diagnostics& diag) {
  Reader reader(payload, diag);
  RejectInfo reject;
  const std::uint8_t category = reader.u8("reject category");
  if (category >= util::kRejectCategoryCount) {
    diag.fail(RejectCategory::Structure, 0, 1, "unknown reject category");
  }
  reject.category = static_cast<util::RejectCategory>(category);
  reject.fatal = reader.u8("fatal flag") != 0;
  (void)reader.u16("reserved field");
  const std::uint32_t len = reader.u32("message length");
  reader.need(len, "reject message");
  reject.message.assign(
      reinterpret_cast<const char*>(payload.data() + reader.pos()), len);
  return reject;
}

std::vector<std::uint8_t> buildFrame(FrameType type, std::uint32_t requestId,
                                     std::span<const std::uint8_t> payload) {
  FrameHeader header;
  header.type = type;
  header.requestId = requestId;
  header.payloadBytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  encodeFrameHeader(header, out);
  putBytes(out, payload.data(), payload.size());
  return out;
}

}  // namespace robust::net
