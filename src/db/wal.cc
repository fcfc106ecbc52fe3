#include "db/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "util/fault.h"

namespace qc::db {

namespace {

/// 8-byte file magics; each file's header is the magic followed by a u64
/// little-endian generation number. A snapshot at generation G supersedes
/// every log record at generation <= G (see Wal class comment).
constexpr char kLogMagic[8] = {'Q', 'C', 'W', 'A', 'L', 'v', '2', '\n'};
constexpr char kSnapMagic[8] = {'Q', 'C', 'S', 'N', 'A', 'P', '2', '\n'};
constexpr char kLogFile[] = "wal.log";
constexpr char kLogTmp[] = "wal.log.tmp";
constexpr char kSnapshotFile[] = "snapshot.dat";
constexpr char kSnapshotTmp[] = "snapshot.tmp";
constexpr std::size_t kHeaderBytes = 16;

/// A single record's payload never legitimately reaches 1 GiB; anything
/// larger read back from disk is corruption, not data.
constexpr std::uint64_t kMaxRecordBytes = std::uint64_t{1} << 30;
constexpr std::size_t kMaxRelationName = 1 << 16;
/// Nullary tuples occupy zero payload bytes, so the per-byte bound in
/// ReadTuples cannot cap their row count; a corrupt count must not drive
/// a multi-gigabyte reserve. No legitimate nullary batch approaches this.
constexpr std::uint64_t kMaxNullaryRows = std::uint64_t{1} << 20;

// --- CRC32 (IEEE 802.3, reflected 0xEDB88320) ---------------------------

const std::uint32_t* Crc32Table() {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t Crc32(std::string_view data) {
  const std::uint32_t* table = Crc32Table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- little-endian scalar packing (explicit, platform-independent) ------

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Bounds-checked cursor over a payload; any read past the end flips
/// `ok` and sticks there, so decode loops cannot run off the buffer.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  bool Need(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::string_view Bytes(std::size_t n) {
    if (!Need(n)) return {};
    std::string_view v = data.substr(pos, n);
    pos += n;
    return v;
  }
};

void PutTuples(std::string* out, int arity,
               const std::vector<Tuple>& tuples) {
  PutU32(out, static_cast<std::uint32_t>(arity));
  PutU64(out, tuples.size());
  for (const Tuple& t : tuples) {
    for (Value v : t) PutU64(out, static_cast<std::uint64_t>(v));
  }
}

bool ReadTuples(Reader* r, int* arity, std::vector<Tuple>* tuples) {
  *arity = static_cast<int>(r->U32());
  const std::uint64_t rows = r->U64();
  if (!r->ok || *arity < 0) return false;
  // Every value is 8 bytes; reject row counts the payload cannot hold
  // before reserving anything. Nullary rows hold no bytes, so they get
  // their own (generous) cap instead.
  const std::uint64_t remaining = r->data.size() - r->pos;
  if (*arity == 0) {
    if (rows > kMaxNullaryRows) return false;
  } else if (rows > remaining / 8 / static_cast<std::uint64_t>(*arity)) {
    return false;
  }
  tuples->reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) {
    Tuple t(static_cast<std::size_t>(*arity));
    for (int c = 0; c < *arity; ++c) {
      t[static_cast<std::size_t>(c)] = static_cast<Value>(r->U64());
    }
    if (!r->ok) return false;
    tuples->push_back(std::move(t));
  }
  return r->ok;
}

// --- POSIX helpers ------------------------------------------------------

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool WriteAll(int fd, std::string_view data, std::string* error) {
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("wal write");
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadWholeFile(const std::string& path, std::string* out, bool* exists,
                   std::string* error) {
  *exists = false;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return true;
    if (error != nullptr) *error = Errno("open " + path);
    return false;
  }
  *exists = true;
  out->clear();
  char buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("read " + path);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool SyncDir(const std::string& dir, std::string* error) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("open dir " + dir);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok && error != nullptr) *error = Errno("fsync dir " + dir);
  ::close(fd);
  return ok;
}

std::string FileHeader(const char (&magic)[8], std::uint64_t generation) {
  std::string header(magic, sizeof(magic));
  PutU64(&header, generation);
  return header;
}

/// False when `data` lacks a complete header or the magic differs.
bool ParseHeader(std::string_view data, const char (&magic)[8],
                 std::uint64_t* generation) {
  if (data.size() < kHeaderBytes) return false;
  if (data.compare(0, sizeof(magic), magic, sizeof(magic)) != 0) {
    return false;
  }
  Reader r{data, sizeof(magic)};
  *generation = r.U64();
  return true;
}

/// Reads at most the first `n` bytes of `path` (fewer if the file is
/// shorter). Missing file: true with *exists = false.
bool ReadPrefix(const std::string& path, std::size_t n, std::string* out,
                bool* exists, std::string* error) {
  *exists = false;
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return true;
    if (error != nullptr) *error = Errno("open " + path);
    return false;
  }
  *exists = true;
  char buf[kHeaderBytes];
  while (out->size() < n) {
    ssize_t r = ::read(fd, buf, std::min(sizeof(buf), n - out->size()));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("read " + path);
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return true;
}

/// Best-effort peek at snapshot.dat's generation (0 = none/unreadable).
/// A fresh log must open at a strictly newer generation, or recovery
/// would discard its records as already covered by the snapshot.
std::uint64_t SnapshotGeneration(const std::string& dir) {
  std::string head;
  bool exists = false;
  if (!ReadPrefix(dir + "/" + kSnapshotFile, kHeaderBytes, &head, &exists,
                  nullptr) ||
      !exists) {
    return 0;
  }
  std::uint64_t generation = 0;
  ParseHeader(head, kSnapMagic, &generation);
  return generation;
}

/// Iterates `data` (past the 16-byte header) record by record. Returns the
/// offset one past the last valid record; `*hard_error` is set (with a
/// message) when a CRC-valid record fails to decode or `on_record`
/// rejects it — corruption beyond a torn tail.
std::uint64_t WalkRecords(
    std::string_view data, std::uint64_t start,
    const std::function<bool(const WalRecord&, std::string*)>& on_record,
    bool* hard_error, std::string* error) {
  std::uint64_t pos = start;
  while (true) {
    if (data.size() - pos < 8) return pos;
    Reader header{data, static_cast<std::size_t>(pos)};
    const std::uint64_t len = header.U32();
    const std::uint32_t crc = header.U32();
    if (len > kMaxRecordBytes || data.size() - pos - 8 < len) return pos;
    std::string_view payload =
        data.substr(static_cast<std::size_t>(pos) + 8,
                    static_cast<std::size_t>(len));
    if (Crc32(payload) != crc) return pos;
    WalRecord record;
    std::string decode_error;
    if (!DecodeWalRecord(payload, &record, &decode_error)) {
      *hard_error = true;
      if (error != nullptr) {
        *error = "checksummed record failed to decode (" + decode_error +
                 ") — refusing to guess past it";
      }
      return pos;
    }
    if (!on_record(record, error)) {
      *hard_error = true;
      return pos;
    }
    pos += 8 + len;
  }
}

}  // namespace

bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out) {
  if (text == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (text == "batch") {
    *out = FsyncPolicy::kBatch;
  } else if (text == "off") {
    *out = FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

const char* ToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "always";
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(record.kind));
  PutU64(&out, record.request_id);
  switch (record.kind) {
    case WalRecord::Kind::kSetRelation:
    case WalRecord::Kind::kAddTuples: {
      PutU32(&out, static_cast<std::uint32_t>(record.relation.size()));
      out += record.relation;
      // kAddTuples callers leave `arity` at 0 (the relation already fixes
      // it); the wire format needs the real width, so derive it from the
      // tuples themselves.
      int arity = record.arity;
      if (arity == 0 && !record.tuples.empty()) {
        arity = static_cast<int>(record.tuples.front().size());
      }
      PutTuples(&out, arity, record.tuples);
      break;
    }
    case WalRecord::Kind::kDataset:
      out.push_back(record.continue_on_error ? '\1' : '\0');
      PutU64(&out, record.dataset.size());
      out += record.dataset;
      break;
    case WalRecord::Kind::kDedup:
      PutU64(&out, record.dedup_ids.size());
      for (std::uint64_t id : record.dedup_ids) PutU64(&out, id);
      break;
    case WalRecord::Kind::kViewDef:
      PutU32(&out, static_cast<std::uint32_t>(record.relation.size()));
      out += record.relation;
      out.push_back(static_cast<char>(record.arity));
      PutU64(&out, record.dataset.size());
      out += record.dataset;
      break;
  }
  return out;
}

bool DecodeWalRecord(std::string_view payload, WalRecord* out,
                     std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  Reader r{payload};
  const std::uint8_t kind = r.U8();
  out->request_id = r.U64();
  if (!r.ok) return fail("record too short for header");
  switch (static_cast<WalRecord::Kind>(kind)) {
    case WalRecord::Kind::kSetRelation:
    case WalRecord::Kind::kAddTuples: {
      out->kind = static_cast<WalRecord::Kind>(kind);
      const std::uint32_t name_len = r.U32();
      if (!r.ok || name_len > kMaxRelationName) {
        return fail("bad relation name length");
      }
      out->relation = std::string(r.Bytes(name_len));
      out->tuples.clear();
      if (!ReadTuples(&r, &out->arity, &out->tuples)) {
        return fail("bad tuple block");
      }
      for (const Tuple& t : out->tuples) {
        if (static_cast<int>(t.size()) != out->arity) {
          return fail("tuple arity mismatch");
        }
      }
      break;
    }
    case WalRecord::Kind::kDataset: {
      out->kind = WalRecord::Kind::kDataset;
      out->continue_on_error = r.U8() != 0;
      const std::uint64_t len = r.U64();
      if (!r.ok || payload.size() - r.pos < len) {
        return fail("bad dataset length");
      }
      out->dataset = std::string(r.Bytes(static_cast<std::size_t>(len)));
      break;
    }
    case WalRecord::Kind::kDedup: {
      out->kind = WalRecord::Kind::kDedup;
      const std::uint64_t count = r.U64();
      if (!r.ok || (payload.size() - r.pos) / 8 < count) {
        return fail("bad dedup count");
      }
      out->dedup_ids.clear();
      out->dedup_ids.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        out->dedup_ids.push_back(r.U64());
      }
      break;
    }
    case WalRecord::Kind::kViewDef: {
      out->kind = WalRecord::Kind::kViewDef;
      const std::uint32_t name_len = r.U32();
      if (!r.ok || name_len > kMaxRelationName) {
        return fail("bad view name length");
      }
      out->relation = std::string(r.Bytes(name_len));
      out->arity = r.U8();
      const std::uint64_t len = r.U64();
      if (!r.ok || payload.size() - r.pos < len) {
        return fail("bad view definition length");
      }
      out->dataset = std::string(r.Bytes(static_cast<std::size_t>(len)));
      break;
    }
    default:
      return fail("unknown record kind");
  }
  if (r.pos != payload.size()) return fail("trailing bytes in record");
  return true;
}

Wal::~Wal() { Close(); }

bool Wal::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

bool Wal::Open(const WalOptions& options, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    *error = "wal already open";
    return false;
  }
  if (options.dir.empty()) {
    *error = "wal directory not set";
    return false;
  }
  if (util::FaultPoint("wal.open")) {
    *error = "injected fault: wal.open";
    return false;
  }
  if (::mkdir(options.dir.c_str(), 0777) != 0 && errno != EEXIST) {
    *error = Errno("mkdir " + options.dir);
    return false;
  }
  const std::string path = options.dir + "/" + kLogFile;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    *error = Errno("open " + path);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *error = Errno("fstat " + path);
    ::close(fd);
    return false;
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t generation = 0;
  if (size < kHeaderBytes) {
    // Fresh log, or a header torn by a crash during creation: start over
    // one generation past the snapshot (if any), so recovery replays what
    // lands here on top of it.
    generation = SnapshotGeneration(options.dir) + 1;
    if (::ftruncate(fd, 0) != 0 ||
        !WriteAll(fd, FileHeader(kLogMagic, generation), error)) {
      if (error->empty()) *error = Errno("init " + path);
      ::close(fd);
      return false;
    }
    size = kHeaderBytes;
  } else {
    // Replay() already validated the header; revalidate cheaply in case
    // Open is used standalone against a foreign file.
    std::string head;
    bool exists = false;
    if (!ReadPrefix(path, kHeaderBytes, &head, &exists, error)) {
      ::close(fd);
      return false;
    }
    if (!ParseHeader(head, kLogMagic, &generation)) {
      *error = path + ": bad magic (not a qc wal)";
      ::close(fd);
      return false;
    }
    // A log the snapshot already covers would silently drop every append
    // at the next recovery; Replay discards such a log, so hitting one
    // here means recovery was skipped.
    if (SnapshotGeneration(options.dir) >= generation) {
      *error = path + ": generation " + std::to_string(generation) +
               " is already covered by the snapshot; run recovery first";
      ::close(fd);
      return false;
    }
  }
  options_ = options;
  fd_ = fd;
  generation_ = generation;
  stats_.log_bytes = size;
  unsynced_bytes_ = 0;
  return true;
}

void Wal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (options_.fsync != FsyncPolicy::kOff && unsynced_bytes_ > 0) {
      ::fdatasync(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
}

bool Wal::SyncLocked(std::string* error) {
  if (util::FaultPoint("wal.fsync")) {
    if (error != nullptr) *error = "injected fault: wal.fsync";
    return false;
  }
  if (::fdatasync(fd_) != 0) {
    if (error != nullptr) *error = Errno("fdatasync wal.log");
    return false;
  }
  ++stats_.syncs;
  unsynced_bytes_ = 0;
  return true;
}

bool Wal::Append(const WalRecord& record, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    *error = "wal not open";
    return false;
  }
  const std::string payload = EncodeWalRecord(record);
  std::string frame;
  frame.reserve(payload.size() + 8);
  PutU32(&frame, static_cast<std::uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame += payload;

  if (util::FaultPoint("wal.write")) {
    ++stats_.append_failures;
    *error = "injected fault: wal.write";
    return false;
  }
  if (!WriteAll(fd_, frame, error)) {
    // A partial frame may now sit on disk; the CRC walk at next recovery
    // truncates it. Nothing was acknowledged, so no data is lost.
    ++stats_.append_failures;
    return false;
  }
  stats_.log_bytes += frame.size();
  unsynced_bytes_ += frame.size();
  ++stats_.records_appended;
  stats_.bytes_appended += frame.size();

  const bool need_sync =
      options_.fsync == FsyncPolicy::kAlways ||
      (options_.fsync == FsyncPolicy::kBatch &&
       unsynced_bytes_ >= options_.batch_bytes);
  if (need_sync && !SyncLocked(error)) {
    ++stats_.append_failures;
    return false;
  }
  return true;
}

bool Wal::Sync(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    if (error != nullptr) *error = "wal not open";
    return false;
  }
  if (options_.fsync == FsyncPolicy::kOff || unsynced_bytes_ == 0) {
    return true;
  }
  return SyncLocked(error);
}

bool Wal::Compact(const Database& db,
                  const std::vector<std::uint64_t>& request_ids,
                  std::string* error) {
  return Compact(db, request_ids, {}, error);
}

bool Wal::Compact(const Database& db,
                  const std::vector<std::uint64_t>& request_ids,
                  const std::vector<WalRecord>& extra_records,
                  std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    *error = "wal not open";
    return false;
  }
  if (util::FaultPoint("wal.compact")) {
    *error = "injected fault: wal.compact";
    return false;
  }

  // Serialize every relation (RelationNames is sorted — deterministic
  // snapshot bytes for identical databases) plus the dedup window. The
  // snapshot carries the current log generation: it supersedes every
  // record logged at or before it.
  std::string snap = FileHeader(kSnapMagic, generation_);
  for (const std::string& name : db.RelationNames()) {
    WalRecord record;
    record.kind = WalRecord::Kind::kSetRelation;
    record.relation = name;
    record.arity = db.Arity(name);
    const FlatRelation& flat = db.Flat(name);
    record.tuples.reserve(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const Value* row = flat.Row(i);
      record.tuples.emplace_back(row, row + record.arity);
    }
    const std::string payload = EncodeWalRecord(record);
    PutU32(&snap, static_cast<std::uint32_t>(payload.size()));
    PutU32(&snap, Crc32(payload));
    snap += payload;
  }
  {
    WalRecord dedup;
    dedup.kind = WalRecord::Kind::kDedup;
    dedup.dedup_ids = request_ids;
    const std::string payload = EncodeWalRecord(dedup);
    PutU32(&snap, static_cast<std::uint32_t>(payload.size()));
    PutU32(&snap, Crc32(payload));
    snap += payload;
  }
  for (const WalRecord& record : extra_records) {
    const std::string payload = EncodeWalRecord(record);
    PutU32(&snap, static_cast<std::uint32_t>(payload.size()));
    PutU32(&snap, Crc32(payload));
    snap += payload;
  }

  const std::string tmp_path = options_.dir + "/" + kSnapshotTmp;
  const std::string snap_path = options_.dir + "/" + kSnapshotFile;
  int fd = ::open(tmp_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    *error = Errno("open " + tmp_path);
    return false;
  }
  if (!WriteAll(fd, snap, error)) {
    ::close(fd);
    return false;
  }
  if (::fdatasync(fd) != 0) {
    *error = Errno("fdatasync " + tmp_path);
    ::close(fd);
    return false;
  }
  ::close(fd);
  // fsync-then-rename: snapshot.dat is either the complete old snapshot
  // or the complete new one, never a torn hybrid.
  if (::rename(tmp_path.c_str(), snap_path.c_str()) != 0) {
    *error = Errno("rename " + tmp_path);
    return false;
  }
  if (!SyncDir(options_.dir, error)) return false;

  // The snapshot is durable; rotate to a fresh, higher-generation log via
  // the same tmp + rename dance. Recovery discards any wal.log whose
  // generation the snapshot covers, so a crash anywhere in this window
  // cannot replay the old records on top of the snapshot that already
  // contains them.
  const std::string log_tmp = options_.dir + "/" + kLogTmp;
  const std::string log_path = options_.dir + "/" + kLogFile;
  std::string rotate_error;
  int log_fd = ::open(log_tmp.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool rotated = log_fd >= 0;
  if (!rotated) rotate_error = Errno("open " + log_tmp);
  if (rotated &&
      !WriteAll(log_fd, FileHeader(kLogMagic, generation_ + 1),
                &rotate_error)) {
    rotated = false;
  }
  if (rotated && ::fdatasync(log_fd) != 0) {
    rotate_error = Errno("fdatasync " + log_tmp);
    rotated = false;
  }
  if (rotated && ::rename(log_tmp.c_str(), log_path.c_str()) != 0) {
    rotate_error = Errno("rename " + log_tmp);
    rotated = false;
  }
  if (rotated && !SyncDir(options_.dir, &rotate_error)) rotated = false;
  if (!rotated) {
    // The snapshot now supersedes the open log, and no fresh log exists:
    // further appends would land in a covered generation and be dropped
    // by the next recovery. Close instead — mutations fail retryably
    // until the server reopens through recovery.
    if (log_fd >= 0) ::close(log_fd);
    ::close(fd_);
    fd_ = -1;
    *error = "wal rotation failed after snapshot: " + rotate_error;
    return false;
  }
  ::close(fd_);
  fd_ = log_fd;
  ++generation_;
  stats_.log_bytes = kHeaderBytes;
  unsynced_bytes_ = 0;
  ++stats_.compactions;
  return true;
}

std::uint64_t Wal::log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0 ? stats_.log_bytes : 0;
}

std::uint64_t Wal::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0 ? generation_ : 0;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats s = stats_;
  s.enabled = fd_ >= 0;
  return s;
}

WalRecovery Wal::Replay(
    const WalOptions& options,
    const std::function<MutationResult(const WalRecord&)>& apply) {
  WalRecovery out;
  auto fail = [&out](std::string message) -> WalRecovery& {
    out.ok = false;
    out.error = std::move(message);
    return out;
  };

  std::unordered_set<std::uint64_t> seen_ids;
  auto handle = [&](const WalRecord& record, std::string* error,
                    std::uint64_t* counter) {
    if (record.kind == WalRecord::Kind::kDedup) {
      for (std::uint64_t dedup_id : record.dedup_ids) {
        if (dedup_id != 0 && seen_ids.insert(dedup_id).second) {
          out.request_ids.push_back(dedup_id);
        }
      }
      return true;
    }
    if (record.request_id != 0 && seen_ids.count(record.request_id) != 0) {
      // The same idempotency id logged twice: a failed fsync persists a
      // record whose mutation was rejected, and the client's acknowledged
      // retry appends a second copy. Applying both would double-apply an
      // acknowledged mutation.
      ++out.duplicate_records_skipped;
      return true;
    }
    MutationResult r = apply(record);
    if (!r) {
      if (error != nullptr) {
        *error = "durable record failed to re-apply: " + r.message;
      }
      return false;
    }
    if (record.request_id != 0) {
      seen_ids.insert(record.request_id);
      out.request_ids.push_back(record.request_id);
    }
    ++*counter;
    return true;
  };

  // A crash inside Compact can leave either pre-rename scratch file
  // behind; neither is ever authoritative.
  ::unlink((options.dir + "/" + kSnapshotTmp).c_str());
  ::unlink((options.dir + "/" + kLogTmp).c_str());

  // 1. Snapshot: complete by construction (fsync-then-rename), so any
  // damage here is a hard error — never skipped.
  const std::string snap_path = options.dir + "/" + kSnapshotFile;
  std::string snap;
  bool snap_exists = false;
  std::uint64_t snap_generation = 0;
  std::string io_error;
  if (!ReadWholeFile(snap_path, &snap, &snap_exists, &io_error)) {
    return fail(io_error);
  }
  if (snap_exists) {
    if (!ParseHeader(snap, kSnapMagic, &snap_generation)) {
      return fail(snap_path + ": bad snapshot header");
    }
    bool hard_error = false;
    std::string walk_error;
    const std::uint64_t end = WalkRecords(
        snap, kHeaderBytes,
        [&](const WalRecord& record, std::string* error) {
          return handle(record, error, &out.snapshot_records);
        },
        &hard_error, &walk_error);
    if (hard_error) return fail(snap_path + ": " + walk_error);
    if (end != snap.size()) {
      return fail(snap_path + ": truncated snapshot record at byte " +
                  std::to_string(end));
    }
  }

  // 2. Log: replay to the last checksummed record, then truncate the torn
  // tail (a crash mid-append legitimately leaves one).
  const std::string log_path = options.dir + "/" + kLogFile;
  std::string log;
  bool log_exists = false;
  if (!ReadWholeFile(log_path, &log, &log_exists, &io_error)) {
    return fail(io_error);
  }
  if (log_exists) {
    std::uint64_t log_generation = 0;
    std::uint64_t valid_end = 0;
    if (log.size() < kHeaderBytes) {
      // Torn header: the file never held a durable record.
      valid_end = 0;
      out.torn_bytes_truncated += log.size();
    } else if (!ParseHeader(log, kLogMagic, &log_generation)) {
      return fail(log_path + ": bad magic (not a qc wal)");
    } else if (snap_exists && log_generation <= snap_generation) {
      // A crash between Compact's snapshot rename and its log rotation:
      // every record here is already inside the snapshot (including its
      // request_ids, via the kDedup record). Replaying would duplicate
      // them all, so discard the file; Open then starts a fresh log one
      // generation past the snapshot.
      out.stale_log_bytes_skipped = log.size();
      if (::unlink(log_path.c_str()) != 0) {
        return fail(Errno("unlink stale " + log_path));
      }
      SyncDir(options.dir, nullptr);  // Best effort; stale is re-skipped.
      out.ok = true;
      return out;
    } else {
      bool hard_error = false;
      std::string walk_error;
      valid_end = WalkRecords(
          log, kHeaderBytes,
          [&](const WalRecord& record, std::string* error) {
            return handle(record, error, &out.log_records);
          },
          &hard_error, &walk_error);
      if (hard_error) return fail(log_path + ": " + walk_error);
      out.torn_bytes_truncated += log.size() - valid_end;
    }
    if (valid_end != log.size()) {
      int fd = ::open(log_path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) return fail(Errno("open " + log_path));
      const bool truncated =
          ::ftruncate(fd, static_cast<off_t>(valid_end)) == 0 &&
          ::fdatasync(fd) == 0;
      ::close(fd);
      if (!truncated) return fail(Errno("truncate " + log_path));
    }
  }

  out.ok = true;
  return out;
}

}  // namespace qc::db
