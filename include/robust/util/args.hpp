// Minimal command-line option parsing for the bench and example binaries.
//
// All harnesses accept overrides like `--seed 7 --mappings 2000 --csv` so the
// paper's parameter sweeps can be re-run without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace robust {

/// Parses `--key value` and `--flag` style options. Unknown options throw,
/// so typos in experiment scripts fail loudly instead of silently running the
/// default configuration.
class ArgParser {
 public:
  /// Parses argv; later duplicates override earlier ones.
  ArgParser(int argc, const char* const* argv);

  /// Returns the string value for `key`, or `fallback` if absent.
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;

  /// Returns the value for `key` parsed as double, or `fallback` if absent.
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;

  /// Returns the value for `key` parsed as int64, or `fallback` if absent.
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;

  /// getInt(key, fallback), refused with InvalidArgumentError naming the
  /// option when it lies outside [lo, hi], so no narrowing cast can wrap.
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback, std::int64_t lo,
                                    std::int64_t hi) const;

  /// True when `--key` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace robust
