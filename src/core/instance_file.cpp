#include "robust/core/instance_file.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>

#include "robust/util/bytes.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

namespace {

using util::loadLE;
using util::RejectCategory;

void writeU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void writeU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

InstanceFileHeader parseInstanceFileHeader(std::span<const std::byte> header,
                                           std::uint64_t totalBytes,
                                           const util::Diagnostics& diag,
                                           const InputPolicy& policy) {
  if (header.size() < kInstanceFileHeaderBytes) {
    diag.failInput(RejectCategory::Truncated,
                   "file holds " + std::to_string(header.size()) +
                       " bytes, the instance-file header needs " +
                       std::to_string(kInstanceFileHeaderBytes));
  }
  if (std::memcmp(header.data(), kInstanceFileMagic,
                  kInstanceFileMagicBytes) != 0) {
    diag.failInput(RejectCategory::Format,
                   "bad magic: not a robust binary instance file");
  }
  const std::uint32_t version = loadLE<std::uint32_t>(header.data() + 8);
  if (version != kInstanceFileVersion) {
    diag.failInput(RejectCategory::Format,
                   "unsupported format version " + std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(kInstanceFileVersion) + ")");
  }
  const std::uint32_t flags = loadLE<std::uint32_t>(header.data() + 12);
  if (flags != 0) {
    diag.failInput(RejectCategory::Format,
                   "unknown flags " + std::to_string(flags) +
                       " (version 1 defines none)");
  }
  for (std::size_t i = 32; i < kInstanceFileHeaderBytes; ++i) {
    if (header[i] != std::byte{0}) {
      diag.failInput(RejectCategory::Format,
                     "reserved header bytes are not zero");
    }
  }

  InstanceFileHeader out;
  out.dim = loadLE<std::uint64_t>(header.data() + 16);
  out.instances = loadLE<std::uint64_t>(header.data() + 24);
  if (out.dim == 0) {
    diag.failInput(RejectCategory::Domain,
                   "declared dimension is zero");
  }
  if (out.dim > policy.maxDeclaredCount) {
    diag.failInput(RejectCategory::Domain,
                   "declared dimension " + std::to_string(out.dim) +
                       " exceeds the policy cap " +
                       std::to_string(policy.maxDeclaredCount));
  }

  // Shape/size cross-check with division (never an overflowing multiply):
  // a corrupt count must produce a diagnostic, not an allocation.
  const std::uint64_t avail = totalBytes - kInstanceFileHeaderBytes;
  const std::uint64_t perInstance = out.dim * sizeof(double);
  if (out.instances > avail / perInstance) {
    diag.failInput(RejectCategory::Truncated,
                   "file ends mid-payload: " + std::to_string(avail) +
                       " payload bytes cannot hold the declared " +
                       std::to_string(out.instances) + " instances of " +
                       std::to_string(perInstance) + " bytes");
  }
  if (out.instances * perInstance != avail) {
    diag.failInput(
        RejectCategory::Structure,
        std::to_string(avail - out.instances * perInstance) +
            " trailing bytes after the declared payload");
  }
  return out;
}

InstanceFileWriter::InstanceFileWriter(std::ostream& out, std::uint64_t dim,
                                       const InputPolicy& policy,
                                       std::string source)
    : out_(out), diag_(std::move(source)), policy_(policy), dim_(dim) {
  ROBUST_REQUIRE(dim_ > 0, "instance file: dimension must be positive");
  out_.write(kInstanceFileMagic,
             static_cast<std::streamsize>(kInstanceFileMagicBytes));
  writeU32(out_, kInstanceFileVersion);
  writeU32(out_, 0);  // flags
  writeU64(out_, dim_);
  writeU64(out_, 0);  // instance count, patched by finish()
  const char zeros[32] = {};
  out_.write(zeros, sizeof(zeros));
  if (!out_) {
    throw std::runtime_error("instance file: header write failed");
  }
}

void InstanceFileWriter::append(std::span<const double> values) {
  ROBUST_REQUIRE(!finished_, "instance file: append() after finish()");
  ROBUST_REQUIRE(values.size() == dim_,
                 "instance file: instance size does not match the declared "
                 "dimension");
  if (policy_.requireFinite) {
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (!std::isfinite(values[k])) {
        diag_.fail(RejectCategory::Domain,
                   static_cast<std::size_t>(instances_) + 1, k + 1,
                   "value " + util::formatValue(values[k]) +
                       " is not finite");
      }
    }
  }
  out_.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!out_) {
    throw std::runtime_error("instance file: payload write failed");
  }
  ++instances_;
}

void InstanceFileWriter::appendBatch(std::span<const double> values) {
  ROBUST_REQUIRE(values.size() % dim_ == 0,
                 "instance file: batch size must be a multiple of the "
                 "dimension");
  for (std::size_t i = 0; i < values.size(); i += dim_) {
    append(values.subspan(i, static_cast<std::size_t>(dim_)));
  }
}

void InstanceFileWriter::finish() {
  ROBUST_REQUIRE(!finished_, "instance file: finish() called twice");
  finished_ = true;
  out_.seekp(24);
  writeU64(out_, instances_);
  out_.seekp(0, std::ios_base::end);
  out_.flush();
  if (!out_) {
    throw std::runtime_error(
        "instance file: header patch failed (stream not seekable?)");
  }
}

InstanceData loadInstanceData(std::span<const std::byte> bytes,
                              const util::Diagnostics& diag,
                              const InputPolicy& policy) {
  InstanceData out;
  out.header = parseInstanceFileHeader(bytes, bytes.size(), diag, policy);
  const std::size_t total =
      static_cast<std::size_t>(out.header.instances * out.header.dim);
  out.values.resize(total);
  if (total > 0) {
    std::memcpy(out.values.data(), bytes.data() + kInstanceFileHeaderBytes,
                total * sizeof(double));
  }
  if (policy.requireFinite) {
    const std::size_t dim = static_cast<std::size_t>(out.header.dim);
    for (std::size_t i = 0; i < total; ++i) {
      if (!std::isfinite(out.values[i])) {
        diag.fail(RejectCategory::Domain, i / dim + 1, i % dim + 1,
                  "payload value " + util::formatValue(out.values[i]) +
                      " is not finite");
      }
    }
  }
  return out;
}

InstanceData loadInstanceData(const std::string& bytes,
                              const util::Diagnostics& diag,
                              const InputPolicy& policy) {
  return loadInstanceData(
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()),
      diag, policy);
}

InstanceFileReader::InstanceFileReader(const std::string& path,
                                       const InputPolicy& policy)
    : file_(path) {
  const util::Diagnostics diag(path);
  if (file_.size() < kInstanceFileHeaderBytes) {
    diag.failInput(RejectCategory::Truncated,
                   "file holds " + std::to_string(file_.size()) +
                       " bytes, the instance-file header needs " +
                       std::to_string(kInstanceFileHeaderBytes));
  }
  util::MmapFile::View view;
  file_.view(0, kInstanceFileHeaderBytes, view);
  header_ = parseInstanceFileHeader({view.data(), view.size()}, file_.size(),
                                    diag, policy);
}

std::span<const double> InstanceFileReader::read(
    std::uint64_t first, std::uint64_t count,
    util::MmapFile::View& view) const {
  ROBUST_REQUIRE(first <= header_.instances &&
                     count <= header_.instances - first,
                 "instance file: read range leaves the file");
  const std::uint64_t doubles = count * header_.dim;
  ROBUST_REQUIRE(doubles <= std::numeric_limits<std::size_t>::max() /
                                sizeof(double),
                 "instance file: shard too large for this address space");
  file_.view(kInstanceFileHeaderBytes +
                 first * header_.dim * sizeof(double),
             static_cast<std::size_t>(doubles) * sizeof(double), view);
  return {reinterpret_cast<const double*>(view.data()),
          static_cast<std::size_t>(doubles)};
}

}  // namespace robust::core
