#ifndef QC_API_WIRE_H_
#define QC_API_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qc::api {

/// One frame of the qcp/1 wire protocol shared by qc_serverd and its
/// clients: a text header plus a length-prefixed binary-safe body.
///
///   qcp <kind> <body-bytes>\n
///   <key> <value>\n                (0+ metadata lines; the value is the
///   .\n                             rest of the line, spaces allowed)
///   <body-bytes raw bytes>
///
/// Request kinds: "query" (body = query text), "mutate" (body = dataset
/// text, see api::LoadDataset), "ping", "stats", "shutdown".
/// Reply kinds: "hdr" (result schema/status), "batch" (one batch of result
/// rows, text lines), "report" (body = RunReport JSON), "end" (terminal,
/// field `code` = process-style exit code), "error" (terminal, structured
/// diagnostic: `code`, `reason`, `message`, admission fields), "pong",
/// "stats-reply" (body = server stats JSON).
///
/// The header is intentionally line-based (greppable, telnet-debuggable);
/// the length-prefixed body keeps arbitrary dataset bytes unambiguous.
struct Frame {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> fields;
  std::string body;

  /// Last value for `key`, or nullptr.
  const std::string* Find(std::string_view key) const;
  /// Find() parsed as u64; `fallback` on absence or garbage.
  std::uint64_t FindUint(std::string_view key, std::uint64_t fallback) const;

  Frame& Add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

/// Serializes a frame. Keys must be single tokens (no spaces/newlines);
/// values must not contain newlines — both hold for every key the protocol
/// defines; violators are sanitized to '_' rather than corrupting framing.
std::string EncodeFrame(const Frame& frame);

/// Appends the encoding of everything before the body (the `qcp` line, the
/// fields and the `.` line) to `out`; EncodeFrame is that plus the body.
/// Lets a writer coalesce frames into its own buffer without building each
/// encoded frame as a separate string.
void AppendFrameHeader(const Frame& frame, std::string* out);

/// Incremental decoder fed by arbitrary byte chunks (socket reads).
/// Hardened against untrusted peers: header lines, field counts and body
/// sizes are capped, and any malformed header poisons the parser (every
/// later Next() returns kError) since resynchronization inside a
/// length-prefixed stream is impossible.
class FrameParser {
 public:
  enum class Result {
    kFrame,     ///< `out` holds the next complete frame.
    kNeedMore,  ///< Feed more bytes.
    kError,     ///< Protocol violation; `error` explains. Terminal.
  };

  /// Caps (bytes): a header line, a whole frame body, fields per frame.
  static constexpr std::size_t kMaxHeaderLine = 4096;
  static constexpr std::size_t kMaxBodyBytes = std::size_t{256} << 20;
  static constexpr std::size_t kMaxFields = 256;

  void Feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void Feed(std::string_view data) { buf_.append(data); }

  Result Next(Frame* out, std::string* error);

 private:
  Result Fail(std::string* error, std::string message);

  std::string buf_;
  bool poisoned_ = false;
};

}  // namespace qc::api

#endif  // QC_API_WIRE_H_
