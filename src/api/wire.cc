#include "api/wire.h"

#include "util/parse.h"

namespace qc::api {

namespace {

/// Replaces framing-hostile bytes so a sloppy caller cannot desynchronize
/// the stream (keys/values are protocol-chosen tokens; this is a backstop,
/// not an escape mechanism).
std::string Sanitize(std::string_view s, bool allow_space) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\n' || c == '\r' || (!allow_space && c == ' ')) {
      out.push_back('_');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool ParseU64(std::string_view value, std::uint64_t* out) {
  if (value.empty() || value.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    std::uint64_t next = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (next < v) return false;
    v = next;
  }
  *out = v;
  return true;
}

}  // namespace

const std::string* Frame::Find(std::string_view key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) found = &v;
  }
  return found;
}

std::uint64_t Frame::FindUint(std::string_view key,
                              std::uint64_t fallback) const {
  const std::string* v = Find(key);
  std::uint64_t out = 0;
  if (v == nullptr || !ParseU64(*v, &out)) return fallback;
  return out;
}

void AppendFrameHeader(const Frame& frame, std::string* out) {
  *out += "qcp ";
  *out += Sanitize(frame.kind, false);
  *out += ' ';
  *out += std::to_string(frame.body.size());
  *out += '\n';
  for (const auto& [key, value] : frame.fields) {
    *out += Sanitize(key, false);
    *out += ' ';
    *out += Sanitize(value, true);
    *out += '\n';
  }
  *out += ".\n";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  AppendFrameHeader(frame, &out);
  out += frame.body;
  return out;
}

FrameParser::Result FrameParser::Fail(std::string* error,
                                      std::string message) {
  poisoned_ = true;
  if (error != nullptr) *error = std::move(message);
  return Result::kError;
}

FrameParser::Result FrameParser::Next(Frame* out, std::string* error) {
  if (poisoned_) return Fail(error, "parser poisoned by earlier error");
  // Parse the header from scratch on every call — headers are tiny; the
  // (possibly large) body is only a size check plus one substr.
  std::size_t pos = 0;
  auto next_line = [&](std::string_view* line) -> int {
    std::size_t eol = buf_.find('\n', pos);
    if (eol == std::string::npos) {
      return buf_.size() - pos > kMaxHeaderLine ? -1 : 0;
    }
    if (eol - pos > kMaxHeaderLine) return -1;
    *line = std::string_view(buf_).substr(pos, eol - pos);
    pos = eol + 1;
    return 1;
  };

  std::string_view line;
  int got = next_line(&line);
  if (got < 0) return Fail(error, "header line too long");
  if (got == 0) return Result::kNeedMore;
  if (line.substr(0, 4) != "qcp ") {
    return Fail(error, "bad frame magic (expected 'qcp')");
  }
  line.remove_prefix(4);
  std::size_t space = line.find(' ');
  if (space == std::string_view::npos || space == 0) {
    return Fail(error, "bad frame header (want 'qcp <kind> <bytes>')");
  }
  std::string kind(line.substr(0, space));
  std::uint64_t body_bytes = 0;
  if (!ParseU64(line.substr(space + 1), &body_bytes)) {
    return Fail(error, "bad frame body size");
  }
  if (body_bytes > kMaxBodyBytes) {
    return Fail(error, "frame body exceeds " +
                           std::to_string(kMaxBodyBytes) + " bytes");
  }

  std::vector<std::pair<std::string, std::string>> fields;
  while (true) {
    got = next_line(&line);
    if (got < 0) return Fail(error, "header line too long");
    if (got == 0) return Result::kNeedMore;
    if (line == ".") break;
    if (fields.size() >= kMaxFields) {
      return Fail(error, "too many header fields");
    }
    std::size_t sep = line.find(' ');
    if (sep == std::string_view::npos || sep == 0) {
      return Fail(error, "bad header field '" +
                             util::ClipForError(line) + "'");
    }
    fields.emplace_back(std::string(line.substr(0, sep)),
                        std::string(line.substr(sep + 1)));
  }

  if (buf_.size() - pos < body_bytes) return Result::kNeedMore;
  out->kind = std::move(kind);
  out->fields = std::move(fields);
  out->body = buf_.substr(pos, body_bytes);
  buf_.erase(0, pos + body_bytes);
  return Result::kFrame;
}

}  // namespace qc::api
