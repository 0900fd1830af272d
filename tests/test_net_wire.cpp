// Wire-protocol codec tests: round trips, the canonical-encoding content
// key, and hostile-byte rejection with the right categories. The decode
// side faces untrusted sockets, so every malformed shape must surface as a
// categorized util::ParseError — never a crash, never an allocation
// proportional to a lying count field.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "robust/core/compiled.hpp"
#include "robust/net/client.hpp"
#include "robust/net/server.hpp"
#include "robust/net/wire.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/rng.hpp"

namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::ImpactFunction;
using robust::core::LinearConstraint;
using robust::core::MetricResult;
using robust::core::NormKind;
using robust::core::PerformanceFeature;
using robust::core::ProblemSpec;
using robust::core::ToleranceBounds;
using robust::net::FrameHeader;
using robust::net::FrameType;
using robust::net::WireLimits;
using robust::net::WireResult;
using robust::util::Diagnostics;
using robust::util::ParseError;
using robust::util::RejectCategory;

ProblemSpec sampleSpec() {
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {1.0, 2.0, 3.0};
  spec.options.norm = NormKind::Weighted;
  spec.options.normWeights = {1.0, 0.5, 2.0};
  spec.features.push_back(PerformanceFeature{
      "phi_0", ImpactFunction::affine({1.0, 1.0, 1.0}, 0.5),
      ToleranceBounds::between(2.0, 12.0)});
  spec.features.push_back(PerformanceFeature{
      "phi_1", ImpactFunction::affine({2.0, 0.0, -1.0}, 0.0),
      ToleranceBounds::atMost(4.0)});
  LinearConstraint budget;
  budget.name = "budget";
  budget.coeffs = {1.0, 1.0, 1.0};
  budget.bound = 10.0;
  spec.constraints.push_back(budget);
  return spec;
}

RejectCategory decodeCategory(const std::vector<std::uint8_t>& payload) {
  const Diagnostics diag("test");
  const WireLimits limits;
  try {
    (void)robust::net::decodeProblemSpec(payload, limits, diag);
  } catch (const ParseError& e) {
    return e.diagnostic().category;
  }
  ADD_FAILURE() << "payload of " << payload.size()
                << " bytes decoded successfully";
  return RejectCategory::Other;
}

TEST(NetWire, FrameHeaderRoundTrip) {
  FrameHeader header;
  header.type = FrameType::Analyze;
  header.payloadBytes = 12345;
  header.requestId = 77;
  std::vector<std::uint8_t> bytes;
  robust::net::encodeFrameHeader(header, bytes);
  ASSERT_EQ(bytes.size(), robust::net::kHeaderBytes);

  const Diagnostics diag("test");
  const WireLimits limits;
  const FrameHeader back =
      robust::net::decodeFrameHeader(bytes, limits, diag);
  EXPECT_EQ(back.version, robust::net::kProtocolVersion);
  EXPECT_EQ(back.type, FrameType::Analyze);
  EXPECT_EQ(back.payloadBytes, 12345u);
  EXPECT_EQ(back.requestId, 77u);
}

TEST(NetWire, FrameHeaderRejectsHostileBytes) {
  const Diagnostics diag("test");
  const WireLimits limits;
  FrameHeader header;
  header.type = FrameType::Hello;

  std::vector<std::uint8_t> bytes;
  robust::net::encodeFrameHeader(header, bytes);
  bytes[0] ^= 0xff;  // magic
  EXPECT_THROW((void)robust::net::decodeFrameHeader(bytes, limits, diag),
               ParseError);
  try {
    (void)robust::net::decodeFrameHeader(bytes, limits, diag);
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Format);
  }

  bytes.clear();
  robust::net::encodeFrameHeader(header, bytes);
  bytes[4] = 99;  // version
  try {
    (void)robust::net::decodeFrameHeader(bytes, limits, diag);
    FAIL() << "bad version decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Structure);
  }

  bytes.clear();
  robust::net::encodeFrameHeader(header, bytes);
  bytes[6] = 1;  // reserved
  try {
    (void)robust::net::decodeFrameHeader(bytes, limits, diag);
    FAIL() << "nonzero reserved decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Structure);
  }

  bytes.clear();
  header.payloadBytes = limits.maxFrameBytes + 1;
  robust::net::encodeFrameHeader(header, bytes);
  try {
    (void)robust::net::decodeFrameHeader(bytes, limits, diag);
    FAIL() << "oversized payload decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Domain);
  }
}

TEST(NetWire, HelloRoundTripAndRejects) {
  const Diagnostics diag("test");
  const WireLimits limits;
  std::vector<std::uint8_t> bytes;
  robust::net::encodeHello(7, "tenant-a", bytes);
  const robust::net::HelloRequest hello =
      robust::net::decodeHello(bytes, limits, diag);
  EXPECT_EQ(hello.declaredDemand, 7u);
  EXPECT_EQ(hello.tenant, "tenant-a");

  bytes.clear();
  robust::net::encodeHello(0, "t", bytes);
  try {
    (void)robust::net::decodeHello(bytes, limits, diag);
    FAIL() << "zero demand decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Domain);
  }

  bytes.clear();
  robust::net::encodeHello(1, std::string("a\x01b", 3), bytes);
  try {
    (void)robust::net::decodeHello(bytes, limits, diag);
    FAIL() << "control character in tenant name decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Domain);
  }

  bytes.clear();
  robust::net::encodeHello(1, "t", bytes);
  bytes.push_back(0);  // trailing byte
  try {
    (void)robust::net::decodeHello(bytes, limits, diag);
    FAIL() << "trailing bytes decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Structure);
  }
}

TEST(NetWire, ProblemSpecRoundTripEvaluatesBitIdentically) {
  const ProblemSpec spec = sampleSpec();
  const std::vector<std::uint8_t> bytes =
      robust::net::encodeProblemSpec(spec);

  const Diagnostics diag("test");
  const WireLimits limits;
  const ProblemSpec back =
      robust::net::decodeProblemSpec(bytes, limits, diag);
  ASSERT_EQ(back.features.size(), spec.features.size());
  ASSERT_EQ(back.constraints.size(), spec.constraints.size());
  EXPECT_EQ(back.options.norm, NormKind::Weighted);

  const CompiledProblem original = CompiledProblem::compile(sampleSpec());
  const CompiledProblem decoded = CompiledProblem::compile(
      robust::net::decodeProblemSpec(bytes, limits, diag));

  // A batch of perturbed origins must answer with the same BITS through
  // either compilation — that is the daemon's core guarantee.
  std::vector<double> origins;
  for (int i = 0; i < 16; ++i) {
    origins.push_back(1.0 + 0.1 * i);
    origins.push_back(2.0 - 0.05 * i);
    origins.push_back(3.0 + 0.01 * i * i);
  }
  std::vector<AnalysisInstance> instances(16);
  for (int i = 0; i < 16; ++i) {
    instances[i].origin = std::span<const double>(origins.data() + i * 3, 3);
  }
  const std::vector<MetricResult> a = original.analyzeBatchMetric(instances);
  const std::vector<MetricResult> b = decoded.analyzeBatchMetric(instances);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].metric, &b[i].metric, sizeof(double)), 0)
        << "instance " << i;
    EXPECT_EQ(a[i].bindingFeature, b[i].bindingFeature);
    EXPECT_EQ(a[i].floored, b[i].floored);
    EXPECT_EQ(original.originFeasible(instances[i].origin),
              decoded.originFeasible(instances[i].origin));
  }
}

TEST(NetWire, CanonicalEncodingIsAStableContentKey) {
  // Same spec encoded twice -> identical bytes -> identical key; any
  // field change moves the key. This is what makes cross-tenant cache
  // sharing sound.
  const std::vector<std::uint8_t> a =
      robust::net::encodeProblemSpec(sampleSpec());
  const std::vector<std::uint8_t> b =
      robust::net::encodeProblemSpec(sampleSpec());
  EXPECT_EQ(a, b);
  EXPECT_EQ(robust::net::fnv1a(a), robust::net::fnv1a(b));

  ProblemSpec tweaked = sampleSpec();
  tweaked.parameter.origin[1] += 1e-9;
  const std::vector<std::uint8_t> c =
      robust::net::encodeProblemSpec(tweaked);
  EXPECT_NE(robust::net::fnv1a(a), robust::net::fnv1a(c));
}

TEST(NetWire, ContentKeyBitsArePinned) {
  // Captured before the encoder moved from net into core: REGISTER_OK
  // replies carry this key, so its bits must never move.
  constexpr std::uint64_t kSampleKey = 0xdacfc9ffb0ee0a06ULL;
  EXPECT_EQ(robust::net::fnv1a(robust::net::encodeProblemSpec(sampleSpec())),
            kSampleKey);
  EXPECT_EQ(CompiledProblem::compile(sampleSpec()).contentKey(), kSampleKey);
}

/// The spec family of bench/robustd_load at its defaults (--dim 24
/// --features 8 --seed 42), replicated here so the REGISTER keys the load
/// driver sees can be pinned without running it.
ProblemSpec loadFamilySpec(std::size_t family) {
  constexpr std::size_t kDim = 24;
  constexpr std::size_t kFeatures = 8;
  auto rng = robust::makeStream(42, 1000 + family);
  ProblemSpec spec;
  spec.parameter.name = "pi (load family " + std::to_string(family) + ")";
  spec.parameter.origin.resize(kDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 4.0);
  }
  for (std::size_t f = 0; f < kFeatures; ++f) {
    robust::num::Vec weights(kDim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    const double constant = rng.uniform(-1.0, 1.0);
    double phiOrig = constant;
    for (std::size_t j = 0; j < kDim; ++j) {
      phiOrig += weights[j] * spec.parameter.origin[j];
    }
    const double slack = rng.uniform(2.0, 6.0);
    spec.features.push_back(PerformanceFeature{
        "phi_" + std::to_string(f),
        ImpactFunction::affine(std::move(weights), constant),
        ToleranceBounds::between(phiOrig - slack, phiOrig + slack)});
  }
  if (family % 2 == 1) {
    LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(kDim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = load + 0.05 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

TEST(NetWire, LiveRegisterKeyIsTheCompiledContentKey) {
  // Keys captured before the encoder moved from net into core.
  constexpr std::uint64_t kFamilyKeys[3] = {
      0x3d2bdb1940ab9eccULL, 0x068f17641069cf31ULL, 0x06b186c1296cea05ULL};
  robust::net::ServerOptions options;
  options.workers = 1;
  robust::net::Server server(std::move(options));
  server.start();
  robust::net::Client client;
  client.connectTcp(server.port());
  client.hello("keys", 1);
  for (std::size_t family = 0; family < 3; ++family) {
    const robust::net::RegisterReply reg =
        client.registerProblem(loadFamilySpec(family));
    EXPECT_FALSE(reg.fromCache);
    EXPECT_EQ(reg.key,
              CompiledProblem::compile(loadFamilySpec(family)).contentKey())
        << "family " << family;
    EXPECT_EQ(reg.key, kFamilyKeys[family]) << "family " << family;
  }
  client.bye();
  server.stop();
}

TEST(NetWire, Fnv1aMatchesTheReferenceVectors) {
  // Published FNV-1a 64-bit test vectors; the key must be stable across
  // platforms and releases or every client-side cache key breaks.
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(robust::net::fnv1a(empty), 0xcbf29ce484222325ULL);
  const std::string abc = "abc";
  const std::vector<std::uint8_t> abcBytes(abc.begin(), abc.end());
  EXPECT_EQ(robust::net::fnv1a(abcBytes), 0xe71fa2190541574bULL);
}

TEST(NetWire, EveryStrictPrefixOfASpecIsRejected) {
  const std::vector<std::uint8_t> bytes =
      robust::net::encodeProblemSpec(sampleSpec());
  const Diagnostics diag("test");
  const WireLimits limits;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    try {
      (void)robust::net::decodeProblemSpec(prefix, limits, diag);
      ADD_FAILURE() << "prefix of " << cut << " bytes decoded successfully";
    } catch (const ParseError& e) {
      // Short prefixes die on the shape cross-check (Structure) or on a
      // field under-run (Truncated); nothing else is acceptable.
      EXPECT_TRUE(e.diagnostic().category == RejectCategory::Truncated ||
                  e.diagnostic().category == RejectCategory::Structure)
          << "prefix " << cut << ": "
          << robust::util::rejectCategoryName(e.diagnostic().category);
    }
  }
}

TEST(NetWire, HostileSpecFieldsDrawTheRightCategories) {
  const std::vector<std::uint8_t> good =
      robust::net::encodeProblemSpec(sampleSpec());

  {
    std::vector<std::uint8_t> bad = good;
    bad[0] = bad[1] = bad[2] = bad[3] = 0;  // dim = 0
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Domain);
  }
  {
    std::vector<std::uint8_t> bad = good;
    std::uint32_t lie = 1u << 30;  // features the payload cannot hold
    std::memcpy(bad.data() + 4, &lie, 4);
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Domain);
  }
  {
    std::vector<std::uint8_t> bad = good;
    std::uint32_t lie = 60000;  // under the cap but over the byte budget
    std::memcpy(bad.data() + 4, &lie, 4);
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Structure);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[12] = 9;  // norm kind
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Domain);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[14] = 1;  // reserved
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Structure);
  }
  {
    std::vector<std::uint8_t> bad = good;
    const double nan = std::nan("");
    std::memcpy(bad.data() + 16, &nan, 8);  // first origin component
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Domain);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);  // trailing byte
    EXPECT_EQ(decodeCategory(bad), RejectCategory::Structure);
  }
}

TEST(NetWire, AnalyzeHeadAndResultRoundTrip) {
  const Diagnostics diag("test");
  const WireLimits limits;
  const std::vector<double> origins = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<std::uint8_t> bytes;
  robust::net::encodeAnalyze(0xfeedfaceULL, 2, origins, bytes);
  ASSERT_EQ(bytes.size(), robust::net::kAnalyzeHeadBytes + 6 * 8);
  const robust::net::AnalyzeHead head =
      robust::net::decodeAnalyzeHead(bytes, limits, diag);
  EXPECT_EQ(head.key, 0xfeedfaceULL);
  EXPECT_EQ(head.instanceCount, 2u);

  std::vector<WireResult> results(2);
  results[0].rho = 1.25;
  results[0].bindingFeature = 3;
  results[0].floored = true;
  results[1].rho = std::numeric_limits<double>::infinity();
  results[1].infeasibleOrigin = true;
  std::vector<std::uint8_t> encoded;
  robust::net::encodeResult(results, encoded);
  const std::vector<WireResult> back =
      robust::net::decodeResult(encoded, limits, diag);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].rho, 1.25);
  EXPECT_EQ(back[0].bindingFeature, 3u);
  EXPECT_TRUE(back[0].floored);
  EXPECT_FALSE(back[0].infeasibleOrigin);
  EXPECT_TRUE(std::isinf(back[1].rho));
  EXPECT_TRUE(back[1].infeasibleOrigin);
  EXPECT_FALSE(back[1].floored);

  // A result count that exceeds what the payload holds must refuse before
  // allocating.
  std::vector<std::uint8_t> lying = encoded;
  std::uint32_t lie = 1000000;
  std::memcpy(lying.data(), &lie, 4);
  try {
    (void)robust::net::decodeResult(lying, limits, diag);
    FAIL() << "lying result count decoded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, RejectCategory::Truncated);
  }
}

TEST(NetWire, RejectPayloadRoundTrip) {
  const Diagnostics diag("test");
  robust::net::RejectInfo info;
  info.category = RejectCategory::Structure;
  info.fatal = true;
  info.message = "spec:1:5: feature count 0 outside [1, 65536]";
  std::vector<std::uint8_t> bytes;
  robust::net::encodeReject(info, bytes);
  const robust::net::RejectInfo back =
      robust::net::decodeReject(bytes, diag);
  EXPECT_EQ(back.category, RejectCategory::Structure);
  EXPECT_TRUE(back.fatal);
  EXPECT_EQ(back.message, info.message);
}

TEST(NetWire, AdminRequestRoundTrip) {
  const Diagnostics diag("test");
  std::vector<std::uint8_t> bytes;
  robust::net::encodeAdminRequest(robust::net::kStatsSchemaVersion, bytes);
  EXPECT_EQ(bytes.size(), 8u);  // u32 version + u32 reserved
  EXPECT_EQ(robust::net::decodeAdminRequest(bytes, diag),
            robust::net::kStatsSchemaVersion);
}

TEST(NetWire, AdminRequestRejectsHostileBytes) {
  const Diagnostics diag("test");
  const auto category = [&diag](const std::vector<std::uint8_t>& payload) {
    try {
      (void)robust::net::decodeAdminRequest(payload, diag);
    } catch (const ParseError& e) {
      return e.diagnostic().category;
    }
    ADD_FAILURE() << "admin payload of " << payload.size()
                  << " bytes decoded successfully";
    return RejectCategory::Other;
  };

  std::vector<std::uint8_t> good;
  robust::net::encodeAdminRequest(robust::net::kStatsSchemaVersion, good);

  // A schema version the server does not speak: Structure, and the message
  // names both versions so the operator knows which side to upgrade.
  std::vector<std::uint8_t> badVersion;
  robust::net::encodeAdminRequest(robust::net::kStatsSchemaVersion + 9,
                                  badVersion);
  EXPECT_EQ(category(badVersion), RejectCategory::Structure);
  try {
    (void)robust::net::decodeAdminRequest(badVersion, diag);
  } catch (const ParseError& e) {
    EXPECT_NE(e.diagnostic().message.find("schema version"),
              std::string::npos);
  }

  // Nonzero reserved bits: Structure.
  std::vector<std::uint8_t> reserved = good;
  reserved[5] = 1;
  EXPECT_EQ(category(reserved), RejectCategory::Structure);

  // Trailing garbage after a well-formed request: Structure.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0xab);
  EXPECT_EQ(category(trailing), RejectCategory::Structure);

  // Every strict prefix is an underrun: Truncated, never a crash.
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::vector<std::uint8_t> prefix(good.begin(),
                                           good.begin() + static_cast<long>(n));
    EXPECT_EQ(category(prefix), RejectCategory::Truncated)
        << "prefix of " << n << " bytes";
  }
}

TEST(NetWire, AdminFrameTypesAreClientFrames) {
  EXPECT_TRUE(robust::net::isClientFrameType(
      static_cast<std::uint8_t>(FrameType::Stats)));
  EXPECT_TRUE(robust::net::isClientFrameType(
      static_cast<std::uint8_t>(FrameType::TraceDump)));
  EXPECT_FALSE(robust::net::isClientFrameType(
      static_cast<std::uint8_t>(FrameType::StatsOk)));
  EXPECT_FALSE(robust::net::isClientFrameType(
      static_cast<std::uint8_t>(FrameType::TraceDumpOk)));
}

TEST(NetWire, EncodeRefusesSpecsThatCannotCrossTheWire) {
  ProblemSpec callable = sampleSpec();
  callable.features[0].impact = ImpactFunction::callable(
      [](std::span<const double> x) { return x[0]; });
  EXPECT_THROW((void)robust::net::encodeProblemSpec(callable),
               robust::InvalidArgumentError);

  ProblemSpec unbounded = sampleSpec();
  unbounded.features[0].bounds = ToleranceBounds{};
  EXPECT_THROW((void)robust::net::encodeProblemSpec(unbounded),
               robust::InvalidArgumentError);
}

}  // namespace
