#include "db/mvcc.h"

#include <map>
#include <utility>

namespace qc::db {

void MvccDatabase::AttachWal(Wal* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
}

void MvccDatabase::AttachViews(ViewRegistry* views) {
  std::lock_guard<std::mutex> lock(mu_);
  views_ = views;
}

bool MvccDatabase::ViewsActiveLocked() const {
  return views_ != nullptr && !views_->empty();
}

void MvccDatabase::NotifyViewsLocked(
    const std::vector<RelationDelta>& deltas) {
  if (views_ == nullptr || deltas.empty()) return;
  views_->OnCommit(db_, epoch_, deltas);
}

std::map<std::string, std::pair<std::uint64_t, std::size_t>>
MvccDatabase::RelationFingerprintsLocked() const {
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> out;
  for (const std::string& name : db_.RelationNames()) {
    out[name] = {db_.RelationVersion(name), db_.NumTuples(name)};
  }
  return out;
}

MutationResult MvccDatabase::RegisterView(const ViewDefinition& def) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_ == nullptr) {
    return MutationResult::Fail("no view registry attached");
  }
  MutationResult valid = views_->Validate(def, db_);
  if (!valid) return valid;
  // Log-before-register, like every durable mutation: a WAL rejection
  // means the definition would not survive a restart, so it is refused
  // outright rather than registered volatile.
  MutationResult out = MutationResult::Ok();
  if (wal_ != nullptr && !LogLocked(ViewDefinitionRecord(def), &out)) {
    return out;
  }
  return views_->Register(def, db_, epoch_);
}

void MvccDatabase::TouchLocked() {
  ++epoch_;
  ++stats_.mutations;
  cached_.reset();  // The next Snapshot() re-clones at the new epoch.
}

bool MvccDatabase::LogLocked(const WalRecord& record, MutationResult* out) {
  if (wal_ == nullptr) return true;
  std::string error;
  if (!wal_->Append(record, &error)) {
    ++stats_.wal_rejections;
    *out = MutationResult::Fail("wal append failed: " + error);
    return false;
  }
  return true;
}

MutationResult MvccDatabase::SetRelation(const std::string& name, int arity,
                                         std::vector<Tuple> tuples) {
  std::lock_guard<std::mutex> lock(mu_);
  // Validate (cheaply, before logging): SetRelation only fails on an arity
  // mismatch inside the batch.
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (static_cast<int>(tuples[i].size()) != arity) {
      return MutationResult::Fail(
          "relation " + name + ": tuple " + std::to_string(i) +
          " has arity " + std::to_string(tuples[i].size()) + ", expected " +
          std::to_string(arity));
    }
  }
  MutationResult out = MutationResult::Ok();
  if (wal_ != nullptr) {
    WalRecord record;
    record.kind = WalRecord::Kind::kSetRelation;
    record.relation = name;
    record.arity = arity;
    record.tuples = tuples;  // Copy: the db takes the originals below.
    if (!LogLocked(record, &out)) return out;
  }
  const std::size_t old_size =
      db_.HasRelation(name) ? db_.NumTuples(name) : 0;
  MutationResult r = db_.SetRelation(name, arity, std::move(tuples));
  if (r) {
    TouchLocked();
    NotifyViewsLocked(
        {{name, RelationDelta::Kind::kReplace, old_size}});
  }
  return r;
}

MutationResult MvccDatabase::SetRelation(const std::string& name,
                                         FlatRelation relation) {
  std::lock_guard<std::mutex> lock(mu_);
  MutationResult out = MutationResult::Ok();
  if (wal_ != nullptr) {
    WalRecord record;
    record.kind = WalRecord::Kind::kSetRelation;
    record.relation = name;
    record.arity = relation.arity();
    record.tuples.reserve(relation.size());
    for (std::size_t i = 0; i < relation.size(); ++i) {
      const Value* row = relation.Row(i);
      record.tuples.emplace_back(row, row + relation.arity());
    }
    if (!LogLocked(record, &out)) return out;
  }
  const std::size_t old_size =
      db_.HasRelation(name) ? db_.NumTuples(name) : 0;
  MutationResult r = db_.SetRelation(name, std::move(relation));
  if (r) {
    TouchLocked();
    NotifyViewsLocked(
        {{name, RelationDelta::Kind::kReplace, old_size}});
  }
  return r;
}

MutationResult MvccDatabase::AddTuple(const std::string& name, Tuple tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) {
    // Validate first so that a logged record is guaranteed to apply.
    if (!db_.HasRelation(name)) {
      return MutationResult::Fail("no such relation " + name);
    }
    if (static_cast<int>(tuple.size()) != db_.Arity(name)) {
      return MutationResult::Fail(
          "relation " + name + ": tuple has arity " +
          std::to_string(tuple.size()) + ", expected " +
          std::to_string(db_.Arity(name)));
    }
    WalRecord record;
    record.kind = WalRecord::Kind::kAddTuples;
    record.relation = name;
    record.arity = static_cast<int>(tuple.size());
    record.tuples.push_back(tuple);
    MutationResult out = MutationResult::Ok();
    if (!LogLocked(record, &out)) return out;
  }
  const std::size_t old_size =
      db_.HasRelation(name) ? db_.NumTuples(name) : 0;
  MutationResult r = db_.AddTuple(name, std::move(tuple));
  if (r) {
    TouchLocked();
    NotifyViewsLocked({{name, RelationDelta::Kind::kAppend, old_size}});
  }
  return r;
}

MutationResult MvccDatabase::AddTuples(const std::string& name,
                                       std::vector<Tuple> tuples) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!db_.HasRelation(name)) {
    return MutationResult::Fail("no such relation " + name);
  }
  const int arity = db_.Arity(name);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (static_cast<int>(tuples[i].size()) != arity) {
      return MutationResult::Fail(
          "relation " + name + ": batch tuple " + std::to_string(i) +
          " has arity " + std::to_string(tuples[i].size()) + ", expected " +
          std::to_string(arity));
    }
  }
  // An empty batch is a validated no-op: logging a zero-tuple record and
  // bumping the epoch would invalidate the cached reader snapshot (and
  // every version-keyed cache above it) for a write that changed nothing.
  if (tuples.empty()) return MutationResult::Ok();
  if (wal_ != nullptr) {
    WalRecord record;
    record.kind = WalRecord::Kind::kAddTuples;
    record.relation = name;
    record.arity = arity;
    record.tuples = tuples;
    MutationResult out = MutationResult::Ok();
    if (!LogLocked(record, &out)) return out;
  }
  const std::size_t old_size = db_.NumTuples(name);
  for (auto& t : tuples) {
    MutationResult r = db_.AddTuple(name, std::move(t));
    if (!r) return r;  // Unreachable after validation; kept for safety.
  }
  TouchLocked();
  NotifyViewsLocked({{name, RelationDelta::Kind::kAppend, old_size}});
  return MutationResult::Ok();
}

MutationResult MvccDatabase::Mutate(
    const std::function<MutationResult(Database&)>& fn) {
  // An empty kDataset record is the "nothing to log" sentinel — plain
  // Mutate offers transactional semantics but no durable replay record
  // (callers that need durability use MutateLogged or the structured ops).
  WalRecord unlogged;
  unlogged.kind = WalRecord::Kind::kDataset;
  return MutateLogged(unlogged, fn);
}

MutationResult MvccDatabase::MutateLogged(
    const WalRecord& record,
    const std::function<MutationResult(Database&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  // Stage on a copy-on-write clone: a failing lambda (or a WAL rejection)
  // rolls back by simply dropping the clone — the live database and the
  // epoch never see the partial work. The clone is O(#relations) pointer
  // copies; only relations `fn` actually mutates get copied.
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> pre;
  if (ViewsActiveLocked()) pre = RelationFingerprintsLocked();
  Database staged = db_.Clone();
  MutationResult r = fn(staged);
  if (!r) return r;
  // Log after `fn` succeeded but before publishing: an acknowledged
  // mutation is exactly one that is durable AND applied. Kind kDataset
  // with empty text (the default record) carries no replay work; skip it.
  const bool loggable = record.kind != WalRecord::Kind::kDataset ||
                        !record.dataset.empty();
  if (loggable && !LogLocked(record, &r)) return r;
  db_ = std::move(staged);
  TouchLocked();
  if (views_ != nullptr && !pre.empty()) {
    // `fn` is arbitrary: a changed version means anything could have
    // happened to that relation, so classify conservatively as a replace.
    // Brand-new relations are appends from row 0 (trivially exact).
    std::vector<RelationDelta> deltas;
    for (const std::string& name : db_.RelationNames()) {
      auto it = pre.find(name);
      if (it == pre.end()) {
        deltas.push_back({name, RelationDelta::Kind::kAppend, 0});
      } else if (db_.RelationVersion(name) != it->second.first) {
        deltas.push_back(
            {name, RelationDelta::Kind::kReplace, it->second.second});
      }
    }
    NotifyViewsLocked(deltas);
  } else if (views_ != nullptr && ViewsActiveLocked()) {
    // A view registered concurrently is impossible (registration holds
    // mu_); pre being empty with active views means the database had no
    // relations before, so everything is new.
    std::vector<RelationDelta> deltas;
    for (const std::string& name : db_.RelationNames()) {
      deltas.push_back({name, RelationDelta::Kind::kAppend, 0});
    }
    NotifyViewsLocked(deltas);
  }
  return r;
}

MutationResult MvccDatabase::MutateLoggedInPlace(
    const WalRecord& record,
    const std::function<MutationResult(const Database&)>& validate,
    const std::function<MutationResult(Database&)>& apply) {
  std::lock_guard<std::mutex> lock(mu_);
  MutationResult r = validate(db_);
  if (!r) return r;
  // Log-before-apply, same as the structured ops: a WAL rejection leaves
  // the database and the epoch untouched. An empty kDataset record is the
  // "nothing to log" sentinel, as in MutateLogged.
  const bool loggable = record.kind != WalRecord::Kind::kDataset ||
                        !record.dataset.empty();
  if (loggable && !LogLocked(record, &r)) return r;
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> pre;
  const bool views_active = ViewsActiveLocked();
  if (views_active) pre = RelationFingerprintsLocked();
  r = apply(db_);
  // Touch even on (contract-breaking) apply failure: the database may be
  // part-mutated, and a stale cached snapshot would hide that from readers.
  TouchLocked();
  if (views_active) {
    // Create-or-append contract (see mvcc.h): a changed existing relation
    // that did not shrink was appended to; shrinkage is defensively a
    // replace. Runs even on a failed apply — the database may be
    // part-mutated and the views must chase whatever state readers see.
    std::vector<RelationDelta> deltas;
    for (const std::string& name : db_.RelationNames()) {
      auto it = pre.find(name);
      if (it == pre.end()) {
        deltas.push_back({name, RelationDelta::Kind::kAppend, 0});
      } else if (db_.RelationVersion(name) != it->second.first) {
        const std::size_t old_size = it->second.second;
        deltas.push_back({name,
                          db_.NumTuples(name) >= old_size
                              ? RelationDelta::Kind::kAppend
                              : RelationDelta::Kind::kReplace,
                          old_size});
      }
    }
    NotifyViewsLocked(deltas);
  }
  return r;
}

MutationResult MvccDatabase::CompactWal(
    const std::vector<std::uint64_t>& request_ids) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return MutationResult::Ok();
  std::vector<WalRecord> extras;
  if (views_ != nullptr) extras = views_->DefinitionRecords();
  std::string error;
  if (!wal_->Compact(db_, request_ids, extras, &error)) {
    return MutationResult::Fail("wal compaction failed: " + error);
  }
  return MutationResult::Ok();
}

bool MvccDatabase::MaybeCompactWal(
    const std::function<std::vector<std::uint64_t>()>& request_ids,
    std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return false;
  const std::uint64_t threshold = wal_->options().compact_bytes;
  if (threshold == 0 || wal_->log_bytes() < threshold) return false;
  std::vector<WalRecord> extras;
  if (views_ != nullptr) extras = views_->DefinitionRecords();
  std::string local;
  if (!wal_->Compact(db_, request_ids(), extras, &local)) {
    if (error != nullptr) *error = local;
    return false;
  }
  return true;
}

MvccSnapshot MvccDatabase::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.snapshots;
  if (cached_ == nullptr || cached_epoch_ != epoch_) {
    cached_ = std::make_shared<const Database>(db_.Clone());
    cached_epoch_ = epoch_;
    ++stats_.snapshot_builds;
  }
  return MvccSnapshot{cached_, epoch_};
}

std::uint64_t MvccDatabase::Epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

MvccStats MvccDatabase::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qc::db
