// Shared glue for the figure/table benches: dataset scale handling, the
// banner each binary prints so outputs are self-describing, and the
// streaming JSON emitter behind the machine-readable BENCH_*.json reports.
#ifndef BQS_BENCH_BENCH_COMMON_H_
#define BQS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trajectory/point.h"

namespace bqs {
namespace bench {

/// FNV-1a offset basis; seed for the checksum helpers below.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds `len` bytes into an FNV-1a running hash.
inline uint64_t Fnv1aMix(uint64_t h, const void* data, std::size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Folds one key point into a running checksum: the stream index and every
/// field of the retained point participate, so two outputs collide only if
/// they are byte-identical (up to hash collisions).
inline uint64_t MixKeyPoint(uint64_t h, const KeyPoint& k) {
  h = Fnv1aMix(h, &k.index, sizeof(k.index));
  h = Fnv1aMix(h, &k.point.pos.x, sizeof(double));
  h = Fnv1aMix(h, &k.point.pos.y, sizeof(double));
  h = Fnv1aMix(h, &k.point.t, sizeof(double));
  h = Fnv1aMix(h, &k.point.velocity.x, sizeof(double));
  h = Fnv1aMix(h, &k.point.velocity.y, sizeof(double));
  return h;
}

/// Byte-exact fingerprint of a compressed output. This is what the bench
/// divergence gates (hull-vs-bruteforce, fleet-vs-sequential) compare.
inline uint64_t ChecksumKeys(std::span<const KeyPoint> keys) {
  uint64_t h = kFnvOffset;
  for (const KeyPoint& k : keys) h = MixKeyPoint(h, k);
  return h;
}

inline std::string HexChecksum(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Dataset scale: 1.0 reproduces paper-sized workloads; benches default to
/// a smaller scale so the full suite stays quick. Accepted spellings, in
/// precedence order: a bare positional number ("0.5"), "--scale 0.5" or
/// "--scale=0.5" anywhere in argv, then the BQS_BENCH_SCALE environment
/// variable, then the per-bench default. Non-positive and malformed values
/// fall through to the next source.
inline double ScaleFromArgs(int argc, char** argv,
                            double default_scale = 0.35) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    double v = 0.0;
    if (arg == "--scale" && i + 1 < argc) {
      v = std::atof(argv[i + 1]);
    } else if (arg.rfind("--scale=", 0) == 0) {
      v = std::atof(argv[i] + 8);
    } else if (i == 1 && arg.rfind("--", 0) != 0) {
      v = std::atof(argv[1]);
    }
    if (v > 0.0) return v;
  }
  if (const char* env = std::getenv("BQS_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return default_scale;
}

/// Positive integer flag: "--flag N" / "--flag=N" in argv, then the
/// `env_var` environment variable (when non-null), then `fallback`.
/// Non-positive and malformed values fall through to the next source,
/// mirroring ScaleFromArgs. Used for worker/shard counts (--threads).
inline int IntFlag(int argc, char** argv, std::string_view flag,
                   const char* env_var, int fallback) {
  const std::string with_eq = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    int v = 0;
    if (arg == flag && i + 1 < argc) {
      v = std::atoi(argv[i + 1]);
    } else if (arg.rfind(with_eq, 0) == 0) {
      v = std::atoi(argv[i] + with_eq.size());
    }
    if (v > 0) return v;
  }
  if (env_var != nullptr) {
    if (const char* env = std::getenv(env_var)) {
      const int v = std::atoi(env);
      if (v > 0) return v;
    }
  }
  return fallback;
}

/// Value of "--flag PATH" / "--flag=PATH" in argv, or `fallback`.
inline std::string StringFlag(int argc, char** argv, std::string_view flag,
                              std::string_view fallback) {
  const std::string with_eq = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(with_eq, 0) == 0) {
      return std::string(arg.substr(with_eq.size()));
    }
  }
  return std::string(fallback);
}

/// Argument check a bench runs before doing anything else, so that neither
/// --help nor a mistyped flag runs the whole bench and writes its report
/// (by default into the current directory, over a committed baseline when
/// run from the repository root). `flags` names the value-taking flags the
/// bench reads ("--flag V" or "--flag=V"); --scale and a leading positional
/// scale are always accepted. Returns nothing when the bench should run,
/// otherwise its exit status: 0 after printing `usage` for --help or -h, 2
/// after an unknown flag, a flag without its value, or a positional
/// argument that is not a leading positive scale.
inline std::optional<int> CheckArgs(
    int argc, char** argv, std::string_view usage,
    std::initializer_list<std::string_view> flags) {
  const auto known = [&flags](std::string_view name) {
    if (name == "--scale") return true;
    for (const std::string_view flag : flags) {
      if (name == flag) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      std::printf("%.*s\n", static_cast<int>(usage.size()), usage.data());
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      // A positional scale must be a whole positive number: anything else
      // (say, "-help") would fall back to the default scale and run.
      char* end = nullptr;
      if (i == 1 && std::strtod(argv[i], &end) > 0.0 && end != argv[i] &&
          *end == '\0') {
        continue;
      }
      std::fprintf(stderr, "unexpected argument '%s'\n%.*s\n", argv[i],
                   static_cast<int>(usage.size()), usage.data());
      return 2;
    }
    const std::size_t eq = arg.find('=');
    if (!known(arg.substr(0, eq))) {
      std::fprintf(stderr, "unknown flag '%s'\n%.*s\n", argv[i],
                   static_cast<int>(usage.size()), usage.data());
      return 2;
    }
    if (eq != std::string_view::npos) continue;
    if (i + 1 == argc) {
      std::fprintf(stderr, "flag '%s' needs a value\n", argv[i]);
      return 2;
    }
    ++i;  // the flag's value
  }
  return std::nullopt;
}

inline void Banner(const char* experiment, const char* paper_reference,
                   double scale) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reference: %s\n", paper_reference);
  std::printf("Dataset scale: %.2f (1.0 = paper-sized; pass as argv[1])\n",
              scale);
  std::printf("==============================================================\n");
}

/// Minimal streaming JSON writer for the BENCH_*.json machine-readable
/// reports. Call order mirrors the document structure; commas and key/value
/// separators are inserted automatically. No escaping surprises: strings
/// are escaped per RFC 8259, doubles use shortest-ish %.10g, and integers
/// wider than 2^53 should be emitted as hex strings by the caller.
///
///   JsonReport json;
///   json.BeginObject();
///   json.Key("scale"), json.Value(0.05);
///   json.Key("streams"), json.BeginArray();
///   ...
///   json.EndArray();
///   json.EndObject();
///   json.WriteFile("BENCH_throughput.json");
class JsonReport {
 public:
  JsonReport& BeginObject() { return Open('{'); }
  JsonReport& EndObject() { return Close('}'); }
  JsonReport& BeginArray() { return Open('['); }
  JsonReport& EndArray() { return Close(']'); }

  JsonReport& Key(std::string_view key) {
    Element();
    Escaped(key);
    out_ += ':';
    key_pending_ = true;
    return *this;
  }

  JsonReport& Value(std::string_view s) {
    Element();
    Escaped(s);
    return *this;
  }
  JsonReport& Value(const char* s) { return Value(std::string_view(s)); }
  JsonReport& Value(double v) {
    Element();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out_ += buf;
    return *this;
  }
  JsonReport& Value(uint64_t v) {
    Element();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
  }
  JsonReport& Value(int64_t v) {
    Element();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
  }
  JsonReport& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonReport& Value(bool v) {
    Element();
    out_ += v ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

  /// Writes the document plus a trailing newline. False on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
    const bool ok = n == out_.size() && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonReport& Open(char c) {
    Element();
    out_ += c;
    fresh_.push_back(1);
    return *this;
  }
  JsonReport& Close(char c) {
    out_ += c;
    fresh_.pop_back();
    return *this;
  }
  /// Comma bookkeeping: the first element at a level gets no comma; a value
  /// directly after its key gets no comma either.
  void Element() {
    if (key_pending_) {
      key_pending_ = false;
      return;
    }
    if (!fresh_.empty()) {
      if (fresh_.back() == 0) out_ += ',';
      fresh_.back() = 0;
    }
  }
  void Escaped(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        case '\r':
          out_ += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<char> fresh_;  ///< 1 = level still awaits its first element.
  bool key_pending_ = false;
};

}  // namespace bench
}  // namespace bqs

#endif  // BQS_BENCH_BENCH_COMMON_H_
