#include "service/beas_service.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "bounded/columnar_tail.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "service/result_cache.h"
#include "sql/canonical_template.h"

namespace beas {

namespace {

std::string BoundedExplanation(uint64_t bound, bool cached) {
  std::string out =
      "covered by the access schema; bounded plan with deduced bound M = " +
      WithCommas(bound);
  if (cached) out += " (cached template plan)";
  return out;
}

/// Cross-checks the hot-path masker against the reference lexer lifting:
/// same parameter values, in the same order. Run once per template.
bool ParamsAgree(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i] != b[i]) return false;
  }
  return true;
}

/// Case-insensitive "does the SQL mention the stats table" check — cheap
/// enough to run on every Execute, and a false positive (the name inside
/// a string literal) merely refreshes the table needlessly.
bool MentionsStatsTable(const std::string& sql) {
  const char* name = BeasService::kStatsTableName;
  size_t n = std::strlen(name);
  if (sql.size() < n) return false;
  for (size_t i = 0; i + n <= sql.size(); ++i) {
    size_t j = 0;
    while (j < n &&
           std::tolower(static_cast<unsigned char>(sql[i + j])) == name[j]) {
      ++j;
    }
    if (j == n) return true;
  }
  return false;
}

/// Detaches dictionary-backed string Values into self-contained inline
/// strings. Results cross the service boundary and outlive the shared
/// lock they were computed under; a dictionary-backed Value in them would
/// silently change meaning when a later maintenance cycle renumbers the
/// table's dictionary (RunAdjustmentCycle's order-preserving rebuilds) —
/// the same hazard class as DROP TABLE, but triggered autonomously. The
/// copy is paid once per result cell, at the boundary of answers that are
/// bounded-small by construction; everything inside the engine stays on
/// the zero-copy code path.
void DetachResultStrings(QueryResult* result) {
  for (Row& row : result->rows) {
    for (Value& v : row) {
      if (v.dict() != nullptr) v = Value::String(v.AsString());
    }
  }
}

/// Lowercased, deduplicated names of the tables a bound query reads —
/// the result cache's epoch-validation set (catalog lookup is
/// case-insensitive, so lowercase resolves).
std::vector<std::string> TablesReadBy(const BoundQuery& query) {
  std::vector<std::string> tables;
  for (const BoundAtom& atom : query.atoms) {
    std::string name = ToLower(atom.table->name());
    if (std::find(tables.begin(), tables.end(), name) == tables.end()) {
      tables.push_back(std::move(name));
    }
  }
  return tables;
}

void AppendU64Key(std::string* key, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    key->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Typed, length-prefixed parameter serialization for the result-cache
/// key: no two distinct (type, value) pairs may collide.
void AppendValueKey(std::string* key, const Value& v) {
  if (v.is_null()) {
    key->push_back('n');
    return;
  }
  switch (v.type()) {
    case TypeId::kInt64:
      key->push_back('i');
      AppendU64Key(key, static_cast<uint64_t>(v.AsInt64()));
      break;
    case TypeId::kDouble: {
      key->push_back('d');
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      AppendU64Key(key, bits);
      break;
    }
    case TypeId::kString: {
      key->push_back('s');
      std::string_view s = v.AsString();
      AppendU64Key(key, s.size());
      *key += s;
      break;
    }
    default: {
      key->push_back('?');
      std::string s = v.ToString();
      AppendU64Key(key, s.size());
      *key += s;
      break;
    }
  }
}

}  // namespace

BeasService::BeasService(ServiceOptions options)
    : options_(std::move(options)),
      catalog_(&db_),
      maintenance_(&db_, &catalog_),
      session_(&db_, &catalog_),
      cache_(options_.cache_capacity, options_.cache_shards),
      cache_enabled_(options_.enable_plan_cache),
      result_cache_(std::make_unique<ResultCache>(
          options_.result_cache_max_bytes, options_.cache_shards)),
      result_cache_enabled_(options_.enable_result_cache &&
                            options_.result_cache_max_bytes > 0),
      // At least one worker, or Submit() futures would never resolve.
      pool_(std::max<size_t>(1, options_.num_workers)) {
  // (b) incremental index maintenance: inserts/deletes update AC indices
  // in place, keeping cached plans valid — no cache invalidation here.
  maintenance_.Attach();
  // (a) plan-validity events invalidate at table granularity. The result
  // cache hard-evicts on the same events (plus, unlike plans, on plain
  // writes — those go through the table version epochs, not these hooks).
  db_.RegisterDdlHook([this](const std::string& table) {
    cache_.InvalidateTable(table);
    result_cache_->InvalidateTable(table);
  });
  catalog_.AddChangeListener([this](AsCatalog::ChangeKind,
                                    const std::string& table,
                                    const std::string&) {
    cache_.InvalidateTable(table);
    result_cache_->InvalidateTable(table);
  });
  if (!options_.durability.dir.empty()) {
    // The stats table is recycled with direct heap writes outside the
    // hooked write path; logging or checkpointing it would replay stale
    // gauges (and its DROP has no hook to log).
    options_.durability.transient_tables = {kStatsTableName};
    durability_ = std::make_unique<durability::DurabilityManager>(
        &db_, &catalog_, options_.durability);
    // Recovers the data dir into db_/catalog_, registers the structural
    // logging hooks, and starts the group-commit drainers. A failure is
    // latched (durability_status()); durable writes then refuse.
    (void)durability_->Open();
    // Checkpoints ride the maintenance cadence: RunAdjustmentCycle ends
    // inside the exclusive structural section this hook needs.
    maintenance_.SetCheckpointHook(
        [this] { return durability_->MaybeCheckpointLocked(); });
    // The scrubber rides the same quiesced cycle, strictly before the
    // checkpoint hook: detect (and quarantine/repair) rot first, so a
    // cycle never checkpoints corrupt memory over the last good copy.
    maintenance_.SetScrubHook([this] { return durability_->ScrubLocked(); });
  }
}

BeasService::~BeasService() = default;

// ---------------------------------------------------------------------------
// Write side.
// ---------------------------------------------------------------------------

Result<TableInfo*> BeasService::CreateTable(const std::string& name,
                                            const Schema& schema) {
  // Durable: the DDL applies under the commit gate and its meta record is
  // logged by the durability layer's DDL hook before the call returns.
  if (durability_ != nullptr) return durability_->CreateTable(name, schema);
  // DDL self-locks the structural lock exclusively inside Database.
  return db_.CreateTable(name, schema);
}

Status BeasService::Insert(const std::string& table, Row row) {
  // Durable: enqueue on the row's shard WAL; the ack resolves after the
  // group fsync AND the apply — which runs through db_.Insert below, on
  // the drainer thread, with identical locking.
  if (durability_ != nullptr) return durability_->Insert(table, std::move(row));
  // Per-shard locking inside Database: only the shard the row hashes to
  // is blocked; inserts to other shards (and none of the readers' shards
  // being free) proceed concurrently.
  return db_.Insert(table, std::move(row));
}

Status BeasService::InsertBatch(const std::string& table,
                                std::vector<Row> rows) {
  if (rows.empty()) return Status::OK();
  if (durability_ != nullptr) {
    return durability_->InsertBatch(table, std::move(rows));
  }
  return db_.InsertBatch(table, std::move(rows));
}

Status BeasService::Delete(const std::string& table, const Row& row) {
  if (durability_ != nullptr) return durability_->Delete(table, row);
  return db_.DeleteWhereEquals(table, row);
}

Status BeasService::RegisterConstraint(AccessConstraint constraint) {
  // The stats table is refreshed outside the hooked write path (and
  // periodically recycled), so an AC index on it would silently go stale.
  if (constraint.table == kStatsTableName) {
    return Status::InvalidArgument(
        std::string(kStatsTableName) +
        " is a service-managed metadata table; access constraints on it "
        "are not supported");
  }
  // Gate before structural lock (the durability lock order); the catalog
  // change listener logs the registration under this gate.
  durability::DurabilityManager::StructuralGate gate(durability_.get());
  Database::StructuralScope lock(&db_);
  return catalog_.Register(std::move(constraint));
}

Status BeasService::UnregisterConstraint(const std::string& name) {
  durability::DurabilityManager::StructuralGate gate(durability_.get());
  Database::StructuralScope lock(&db_);
  return catalog_.Unregister(name);
}

Status BeasService::RunAdjustmentCycle(double headroom, size_t* changed_out) {
  durability::DurabilityManager::StructuralGate gate(durability_.get());
  Database::StructuralScope lock(&db_);
  return maintenance_.RunAdjustmentCycle(headroom, changed_out);
}

Status BeasService::ApplySuggestions(
    const std::vector<MaintenanceManager::Adjustment>& adjustments) {
  durability::DurabilityManager::StructuralGate gate(durability_.get());
  Database::StructuralScope lock(&db_);
  return maintenance_.ApplySuggestions(adjustments);
}

Status BeasService::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("service is not durable");
  }
  return durability_->Checkpoint();
}

Status BeasService::Scrub(durability::ScrubReport* report) {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("service is not durable");
  }
  return durability_->Scrub(report);
}

std::vector<MaintenanceManager::Adjustment> BeasService::RevalidateAndSuggest(
    double headroom) const {
  Database::ReadScope lock(&db_);
  return maintenance_.RevalidateAndSuggest(headroom);
}

// ---------------------------------------------------------------------------
// Read side: Query() is the single entry point. Every named method below
// builds a QueryRequest and funnels through it, so admission, tenant
// accounting, and telemetry behave identically no matter which transport
// or shim a request arrived through.
// ---------------------------------------------------------------------------

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kAuto:
      return "auto";
    case QueryMode::kBoundedOnly:
      return "bounded";
    case QueryMode::kApproximate:
      return "approx";
    case QueryMode::kCheckOnly:
      return "check";
  }
  return "auto";
}

Result<QueryMode> ParseQueryMode(const std::string& token) {
  if (token.empty() || token == "auto") return QueryMode::kAuto;
  if (token == "bounded") return QueryMode::kBoundedOnly;
  if (token == "approx") return QueryMode::kApproximate;
  if (token == "check") return QueryMode::kCheckOnly;
  return Status::InvalidArgument("unknown query mode: '" + token +
                                 "' (expected auto|bounded|approx|check)");
}

Result<QueryResponse> BeasService::Query(const QueryRequest& request) {
  TenantState* tenant = TenantFor(request.tenant);
  if (tenant != nullptr) {
    tenant->requests.fetch_add(1, std::memory_order_relaxed);
  }
  switch (request.mode) {
    case QueryMode::kAuto:
      return QueryAuto(request, tenant);
    case QueryMode::kBoundedOnly:
      return QueryBoundedOnly(request, tenant);
    case QueryMode::kApproximate:
      return QueryApproximate(request, tenant);
    case QueryMode::kCheckOnly:
      return QueryCheckOnly(request);
  }
  // Unknown byte off the wire: typed client error, never a crash.
  return Status::InvalidArgument(
      "unknown query mode " +
      std::to_string(static_cast<unsigned>(request.mode)));
}

Result<ServiceResponse> BeasService::Execute(const std::string& sql,
                                             const QueryOptions& qopts) {
  QueryRequest request;
  request.sql = sql;
  request.options = qopts;
  return Query(request);
}

Result<QueryResponse> BeasService::QueryAuto(const QueryRequest& request,
                                             TenantState* tenant) {
  if (MentionsStatsTable(request.sql)) {
    // Materialize fresh serving-health counters before answering; the
    // refresh takes the exclusive lock, the query itself runs shared.
    // (The refresh rewrites the stats table's rows, bumping its version
    // epoch — so a previously cached beas_stats answer can never be
    // served stale.)
    BEAS_RETURN_NOT_OK(RefreshStatsTable());
  }
  TemplateInfo tinfo = PrepareTemplate(request.sql);
  Database::ReadScope lock(&db_);
  // Result-cache hit: serve the materialized answer before binding,
  // coverage checking, or any admission reservation — a hit consumes no
  // cost grant and cannot be rejected by an exhausted pool.
  std::string rkey;
  uint64_t rhash = 0;
  if (tinfo.have && result_cache_enabled_.load(std::memory_order_relaxed)) {
    rkey = ResultKeyFor(tinfo, QueryMode::kAuto, request.options);
    rhash = HashString(rkey);
    QueryResponse hit;
    if (LookupResult(rhash, rkey, &hit)) return hit;
  }
  std::vector<std::string> tables;
  Result<QueryResponse> resp = ExecuteLocked(request, tinfo, tenant, &tables);
  if (resp.ok()) {
    resp->covered =
        resp->decision.mode == BeasSession::ExecutionDecision::Mode::kBounded;
    // Still under the shared lock: no rebuild can race the detach.
    DetachResultStrings(&resp->result);
    if (!rkey.empty()) {
      // Same ReadScope the answer was computed under: the epochs captured
      // here are exactly the epochs the answer was evaluated at.
      MaybeStoreResult(rhash, rkey, *resp, request.options, tables);
    }
  }
  return resp;
}

BeasService::TemplateInfo BeasService::PrepareTemplate(const std::string& sql) {
  TemplateInfo info;
  info.sql = sql;
  Result<SqlTemplate> masked = MaskSqlLiterals(sql);
  if (!masked.ok()) return info;
  info.have = true;
  info.masked = std::move(*masked);
  CanonicalizedTemplate canon = CanonicalizeTemplate(info.masked);
  if (!canon.changed) return info;
  // Self-check before trusting a rewrite: render the canonical template
  // back to SQL and re-mask it; anything short of an exact round trip
  // (text AND parameters) falls back to the original spelling.
  Result<std::string> rendered = RenderTemplate(canon.tmpl);
  if (!rendered.ok()) return info;
  Result<SqlTemplate> remasked = MaskSqlLiterals(*rendered);
  if (!remasked.ok() || remasked->text != canon.tmpl.text ||
      !ParamsAgree(remasked->params, canon.tmpl.params)) {
    return info;
  }
  info.masked = std::move(canon.tmpl);
  info.sql = std::move(*rendered);
  info.canonicalized = true;
  template_canonicalizations_.fetch_add(1, std::memory_order_relaxed);
  return info;
}

std::string BeasService::ResultKeyFor(const TemplateInfo& tinfo,
                                      QueryMode mode,
                                      const QueryOptions& qopts) {
  std::string key = tinfo.masked.text;
  key.push_back('\0');
  key.push_back(static_cast<char>(mode));
  // The budget class: answers under different fetch budgets or min-η
  // contracts are different answers. The deadline is deliberately NOT in
  // the key — it only changes the answer by timing out, and timed-out
  // answers are never cached.
  AppendU64Key(&key, qopts.fetch_budget);
  double min_eta = qopts.min_eta;
  uint64_t bits;
  std::memcpy(&bits, &min_eta, sizeof(bits));
  AppendU64Key(&key, bits);
  for (const Value& v : tinfo.masked.params) AppendValueKey(&key, v);
  return key;
}

bool BeasService::LookupResult(uint64_t hash, const std::string& key,
                               QueryResponse* resp) {
  std::shared_ptr<const ResultCache::Entry> entry =
      result_cache_->Lookup(hash, key);
  if (entry == nullptr) return false;
  // Epoch validation under the caller's ReadScope: every writer is
  // excluded, so epoch equality means the source data is bit-identical
  // to what the cached answer was computed from.
  for (const auto& te : entry->table_epochs) {
    Result<TableInfo*> table = db_.catalog()->GetTable(te.first);
    if (!table.ok() || (*table)->heap()->version_epoch() != te.second) {
      result_cache_->RemoveStale(hash, key);
      return false;
    }
  }
  result_cache_->NoteHit();
  *resp = entry->response;
  resp->result_cache_hit = true;
  return true;
}

void BeasService::MaybeStoreResult(uint64_t hash, const std::string& key,
                                   const QueryResponse& resp,
                                   const QueryOptions& qopts,
                                   const std::vector<std::string>& tables) {
  if (!result_cache_enabled_.load(std::memory_order_relaxed)) return;
  // Only complete answers — or partial/degraded ones the client's min_eta
  // contract explicitly accepted — are worth replaying. Timed-out (or
  // cancelled; both surface as timed_out) answers reflect a deadline, not
  // the data, and degraded answers reflect admission pressure.
  if (resp.timed_out) return;
  if ((resp.eta < 1.0 || resp.degraded) &&
      !(qopts.min_eta > 0 && resp.eta >= qopts.min_eta)) {
    return;
  }
  auto entry = std::make_shared<ResultCache::Entry>();
  entry->response = resp;
  entry->response.result_cache_hit = false;
  entry->table_epochs.reserve(tables.size());
  for (const std::string& table_name : tables) {
    Result<TableInfo*> table = db_.catalog()->GetTable(table_name);
    if (!table.ok()) return;  // racing DDL: don't cache
    entry->table_epochs.emplace_back(table_name,
                                     (*table)->heap()->version_epoch());
  }
  entry->bytes = ApproxResponseBytes(entry->response) + key.size();
  result_cache_->Insert(hash, key, std::move(entry));
}

ResultCacheStats BeasService::result_cache_stats() const {
  return result_cache_->stats();
}

void BeasService::ClearResultCache() { result_cache_->Clear(); }

// ---------------------------------------------------------------------------
// Admission control: the deduced access bound of a covered query is a
// tight, a-priori cost estimate — exactly the quantity the paper bounds —
// so it doubles as the admission cost unit. Reservations are CAS-based on
// one atomic; no lock is held while a query runs.
// ---------------------------------------------------------------------------

BeasService::TenantState* BeasService::TenantFor(const std::string& tenant) {
  if (tenant.empty()) return nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(tenants_mutex_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(tenants_mutex_);
  std::unique_ptr<TenantState>& slot = tenants_[tenant];
  if (slot == nullptr) {
    slot = std::make_unique<TenantState>();
    auto cap = options_.tenant_cost_caps.find(tenant);
    slot->cap = cap != options_.tenant_cost_caps.end()
                    ? cap->second
                    : options_.tenant_max_inflight_cost;
  }
  return slot.get();
}

Result<BeasService::AdmissionTicket> BeasService::Admit(uint64_t bound,
                                                        TenantState* tenant) {
  AdmissionTicket ticket;
  if (bound == 0) return ticket;  // free query: nothing to reserve

  // Level 1 — the tenant's own pool. A capped tenant degrades before it
  // rejects, exactly like the global pool; a cap of 0 only records usage.
  uint64_t remaining = bound;
  bool tenant_degraded = false;
  if (tenant != nullptr) {
    ticket.tenant = tenant;
    if (tenant->cap > 0) {
      uint64_t used = tenant->inflight.load(std::memory_order_relaxed);
      for (;;) {
        if (used >= tenant->cap) {
          tenant->rejected.fetch_add(1, std::memory_order_relaxed);
          queries_rejected_.fetch_add(1, std::memory_order_relaxed);
          return Status::ResourceExhausted(
              "tenant admission: in-flight cost " + WithCommas(used) +
              " has exhausted the tenant's cap of " + WithCommas(tenant->cap) +
              " (query's deduced access bound: " + WithCommas(bound) + ")");
        }
        uint64_t grant = std::min(remaining, tenant->cap - used);
        if (tenant->inflight.compare_exchange_weak(
                used, used + grant, std::memory_order_relaxed)) {
          ticket.tenant_charged = grant;
          tenant_degraded = grant < remaining;
          remaining = grant;
          break;
        }
      }
    } else {
      tenant->inflight.fetch_add(remaining, std::memory_order_relaxed);
      ticket.tenant_charged = remaining;
    }
  }

  // Level 2 — the global pool, reserving the (possibly shrunk) tenant
  // grant. A shortfall here refunds the tenant the difference so the two
  // charges always agree.
  uint64_t cap = options_.max_inflight_cost;
  if (cap > 0) {
    uint64_t used = inflight_cost_.load(std::memory_order_relaxed);
    for (;;) {
      if (used >= cap) {
        if (ticket.tenant_charged > 0) {
          tenant->inflight.fetch_sub(ticket.tenant_charged,
                                     std::memory_order_relaxed);
          ticket.tenant_charged = 0;
        }
        queries_rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "admission control: in-flight cost " + WithCommas(used) +
            " has exhausted the budget of " + WithCommas(cap) +
            " (query's deduced access bound: " + WithCommas(bound) + ")");
      }
      // Degrade before rejecting: grant whatever remains and run the query
      // under that fetch budget, with honest η.
      uint64_t grant = std::min(remaining, cap - used);
      if (inflight_cost_.compare_exchange_weak(used, used + grant,
                                               std::memory_order_relaxed)) {
        ticket.charged = grant;
        if (grant < remaining && ticket.tenant_charged > 0) {
          tenant->inflight.fetch_sub(remaining - grant,
                                     std::memory_order_relaxed);
          ticket.tenant_charged -= remaining - grant;
        }
        remaining = grant;
        break;
      }
    }
  }

  ticket.grant = remaining;
  ticket.degraded = remaining < bound;
  if (ticket.degraded) {
    queries_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (tenant != nullptr) {
    if (tenant_degraded) {
      tenant->degraded.fetch_add(1, std::memory_order_relaxed);
    }
    // High-water mark of the tenant's in-flight cost, for beas_stats.
    uint64_t now = tenant->inflight.load(std::memory_order_relaxed);
    uint64_t max = tenant->inflight_max.load(std::memory_order_relaxed);
    while (now > max && !tenant->inflight_max.compare_exchange_weak(
                            max, now, std::memory_order_relaxed)) {
    }
  }
  return ticket;
}

void BeasService::ReleaseAdmission(const AdmissionTicket& ticket) {
  if (ticket.charged > 0) {
    inflight_cost_.fetch_sub(ticket.charged, std::memory_order_relaxed);
  }
  if (ticket.tenant != nullptr && ticket.tenant_charged > 0) {
    ticket.tenant->inflight.fetch_sub(ticket.tenant_charged,
                                      std::memory_order_relaxed);
  }
}

Status BeasService::RunCoveredAdmitted(const BoundQuery& query,
                                       const BoundedPlan& plan,
                                       BoundedExecOptions exec_options,
                                       const QueryOptions& qopts,
                                       TenantState* tenant,
                                       QueryResponse* resp) {
  BEAS_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                        Admit(plan.total_access_bound, tenant));
  struct Release {
    BeasService* service;
    const AdmissionTicket* ticket;
    ~Release() { service->ReleaseAdmission(*ticket); }
  } release{this, &ticket};

  if (qopts.fetch_budget > 0) exec_options.fetch_budget = qopts.fetch_budget;
  if (ticket.degraded) {
    exec_options.fetch_budget =
        exec_options.fetch_budget > 0
            ? std::min(exec_options.fetch_budget, ticket.grant)
            : ticket.grant;
  }
  if (qopts.timeout_millis > 0) {
    exec_options.control =
        ExecControl::After(std::chrono::milliseconds(qopts.timeout_millis));
  }
  exec_options.control.cancel = qopts.cancel;

  BoundedExecStats stats;
  BEAS_ASSIGN_OR_RETURN(
      resp->result, session_.ExecuteCovered(query, plan, exec_options, &stats));
  resp->eta = stats.eta;
  resp->degraded = ticket.degraded;
  resp->timed_out = stats.timed_out;
  if (stats.timed_out) {
    queries_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  if (qopts.min_eta > 0 && stats.eta < qopts.min_eta) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "answer coverage eta=" + std::to_string(stats.eta) +
        " fell below the requested min_eta=" + std::to_string(qopts.min_eta));
  }
  return Status::OK();
}

ServiceCounters BeasService::service_counters() const {
  ServiceCounters out;
  out.queries_timed_out_total =
      queries_timed_out_.load(std::memory_order_relaxed);
  out.queries_rejected_total =
      queries_rejected_.load(std::memory_order_relaxed);
  out.queries_degraded_total =
      queries_degraded_.load(std::memory_order_relaxed);
  out.submit_queue_depth = submit_queue_depth_.load(std::memory_order_relaxed);
  out.inflight_cost = inflight_cost_.load(std::memory_order_relaxed);
  return out;
}

TenantCounters BeasService::tenant_counters(const std::string& tenant) const {
  TenantCounters out;
  std::shared_lock<std::shared_mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return out;
  const TenantState& state = *it->second;
  out.requests_total = state.requests.load(std::memory_order_relaxed);
  out.rejected_total = state.rejected.load(std::memory_order_relaxed);
  out.degraded_total = state.degraded.load(std::memory_order_relaxed);
  out.inflight_cost = state.inflight.load(std::memory_order_relaxed);
  out.inflight_cost_max = state.inflight_max.load(std::memory_order_relaxed);
  return out;
}

Status BeasService::RefreshStatsTable() {
  // Each refresh tombstones the old snapshot and appends a fresh one, and
  // heap slots are never reused — so a polled stats table would grow
  // forever. Recreate it (cheap, rare) once the dead-slot debt builds up.
  constexpr size_t kMaxDeadSlots = 4096;
  // One refresh at a time (concurrent beas_stats queries each trigger
  // one); this leaf mutex is always taken before any engine lock.
  std::lock_guard<std::mutex> refresh_lock(stats_refresh_mutex_);

  // Phase 1 — make sure the table exists: recycle it when the dead-slot
  // debt built up, create it when missing. Structural-exclusive, briefly.
  bool need_create = false;
  {
    Database::StructuralScope lock(&db_);
    if (db_.catalog()->HasTable(kStatsTableName)) {
      BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                            db_.catalog()->GetTable(kStatsTableName));
      if (info->heap()->NumSlots() - info->heap()->NumRows() > kMaxDeadSlots) {
        BEAS_RETURN_NOT_OK(db_.catalog()->DropTable(kStatsTableName));
        need_create = true;
      }
    } else {
      need_create = true;
    }
  }
  if (need_create) {
    BEAS_ASSIGN_OR_RETURN(
        TableInfo * info,
        db_.CreateTable(kStatsTableName, Schema({{"metric", TypeId::kString},
                                                 {"value", TypeId::kDouble}})));
    // No interning for this table: it is the one table the service ever
    // drops (the recycle above), and dictionary-backed Values in results
    // a client still holds would dangle into the destroyed dictionary.
    // Inline strings keep returned rows self-contained; at ~20 tiny rows
    // the encoding would buy nothing anyway.
    Database::StructuralScope lock(&db_);
    info->heap()->set_dict_enabled(false);
  }

  // Phase 2 — snapshot the gauges. Per-shard storage counters are read
  // one shard at a time under that shard's read lock (never two shard
  // locks at once, so this can never invert lock order against a writer
  // that is taking its shards in ascending order); dictionary gauges are
  // sampled under each table's intern mutex. Counters (cache,
  // maintenance) are atomics.
  PlanCacheStats cache = cache_.stats();
  double dict_strings = 0;
  double dict_bytes = 0;
  double dict_sorted_tables = 0;
  double dict_rebuilds_total = 0;
  double num_tables = 0;
  double num_rows = 0;
  double heap_bytes = 0;
  double index_bytes = 0;
  size_t lock_shards = db_.num_shard_locks();
  std::vector<double> rows_per_shard(lock_shards, 0);
  std::vector<std::string> table_names;
  {
    Database::ShardReadScope scope(&db_, 0);
    table_names = db_.catalog()->TableNames();
    num_tables = static_cast<double>(table_names.size());
    for (const std::string& name : table_names) {
      Result<TableInfo*> table = db_.catalog()->GetTable(name);
      if (!table.ok()) continue;
      TableHeap::DictGauges gauges = (*table)->heap()->SampleDictGauges();
      dict_strings += static_cast<double>(gauges.strings);
      dict_bytes += static_cast<double>(gauges.bytes);
      if ((*table)->heap()->dict() != nullptr && gauges.sorted) {
        dict_sorted_tables += 1;
      }
      dict_rebuilds_total += static_cast<double>(gauges.rebuilds);
    }
    // Index gauges sample under each sub-index's write mutex.
    index_bytes = static_cast<double>(catalog_.TotalIndexBytes());
  }
  for (size_t s = 0; s < lock_shards; ++s) {
    Database::ShardReadScope scope(&db_, s);
    for (const std::string& name : table_names) {
      // The metadata table's own (about-to-be-replaced) snapshot is not
      // data; leaving it out keeps rows_live equal to user-visible rows.
      if (name == kStatsTableName) continue;
      Result<TableInfo*> table = db_.catalog()->GetTable(name);
      if (!table.ok()) continue;
      const TableHeap& heap = *(*table)->heap();
      // Lock id s protects every heap shard congruent to it.
      for (size_t h = s; h < heap.num_shards(); h += lock_shards) {
        rows_per_shard[s] += static_cast<double>(heap.ShardLiveRows(h));
        heap_bytes += static_cast<double>(heap.ShardBytes(h));
      }
    }
    num_rows += rows_per_shard[s];
  }
  double shard_rows_max = 0;
  double shard_rows_min = lock_shards == 0 ? 0 : rows_per_shard[0];
  for (double r : rows_per_shard) {
    shard_rows_max = std::max(shard_rows_max, r);
    shard_rows_min = std::min(shard_rows_min, r);
  }

  std::vector<Row> rows;
  auto add = [&rows](const char* metric, double value) {
    rows.push_back({Value::String(metric), Value::Double(value)});
  };
  add("plan_cache_hits", static_cast<double>(cache.hits));
  add("plan_cache_misses", static_cast<double>(cache.misses));
  add("plan_cache_evictions", static_cast<double>(cache.evictions));
  add("plan_cache_invalidations", static_cast<double>(cache.invalidations));
  add("plan_cache_uncacheable", static_cast<double>(cache.uncacheable));
  add("plan_cache_entries", static_cast<double>(cache.entries));
  add("plan_cache_enabled", cache_enabled_.load() ? 1 : 0);
  // Materialized result cache: hit/miss/eviction counters, the lazy
  // (epoch) + hard invalidation count, and the resident byte footprint.
  ResultCacheStats rcache = result_cache_->stats();
  add("result_cache_hits_total", static_cast<double>(rcache.hits));
  add("result_cache_misses_total", static_cast<double>(rcache.misses));
  add("result_cache_evictions_total", static_cast<double>(rcache.evictions));
  add("result_cache_invalidations_total",
      static_cast<double>(rcache.invalidations));
  add("result_cache_entries", static_cast<double>(rcache.entries));
  add("result_cache_bytes", static_cast<double>(rcache.bytes));
  add("result_cache_enabled", result_cache_enabled_.load() ? 1 : 0);
  add("template_canonicalizations_total",
      static_cast<double>(
          template_canonicalizations_.load(std::memory_order_relaxed)));
  add("maintenance_updates_applied",
      static_cast<double>(maintenance_.updates_applied()));
  add("constraints_registered",
      static_cast<double>(catalog_.schema().constraints().size()));
  add("tables", num_tables);
  add("rows_live", num_rows);
  add("dict_strings_total", dict_strings);
  add("dict_bytes_total", dict_bytes);
  add("heap_bytes_total", heap_bytes);
  add("index_bytes_total", index_bytes);
  add("dict_sorted_tables", dict_sorted_tables);
  add("dict_rebuilds_total", dict_rebuilds_total);
  // Process-wide counters (like tls_hash_string_calls): a process hosting
  // several BeasService instances reports their combined tail activity
  // under each service's beas_stats.
  add("tail_batches_total", static_cast<double>(
                                TailBatchesTotal().load(
                                    std::memory_order_relaxed)));
  add("tail_rows_grouped", static_cast<double>(
                               TailRowsGrouped().load(
                                   std::memory_order_relaxed)));
  add("workers", static_cast<double>(pool_.num_threads()));
  add("storage_shards", static_cast<double>(lock_shards));
  add("shard_rows_max", shard_rows_max);
  add("shard_rows_min", shard_rows_min);
  // Durability gauges: all-zero for an in-memory service, so dashboards
  // can query them unconditionally.
  durability::DurabilityCounters dur = durability_counters();
  add("wal_bytes_total", static_cast<double>(dur.wal_bytes_total));
  add("wal_group_commits_total",
      static_cast<double>(dur.wal_group_commits_total));
  add("wal_fsyncs_total", static_cast<double>(dur.wal_fsyncs_total));
  add("checkpoints_total", static_cast<double>(dur.checkpoints_total));
  add("recovery_replayed_records",
      static_cast<double>(dur.recovery_replayed_records));
  add("wal_retries_total", static_cast<double>(dur.wal_retries_total));
  add("wal_latched_shards", static_cast<double>(dur.wal_latched_shards));
  add("scrub_cycles_total", static_cast<double>(dur.scrub_cycles_total));
  add("scrub_corruptions_found",
      static_cast<double>(dur.scrub_corruptions_found));
  add("scrub_repairs_total", static_cast<double>(dur.scrub_repairs_total));
  add("quarantined_shards", static_cast<double>(dur.quarantined_shards));
  add("env_injected_faults", static_cast<double>(dur.env_injected_faults));
  // Resilience gauges: deadline/admission verdicts and the live queue.
  ServiceCounters svc = service_counters();
  add("queries_timed_out_total",
      static_cast<double>(svc.queries_timed_out_total));
  add("queries_rejected_total",
      static_cast<double>(svc.queries_rejected_total));
  add("queries_degraded_total",
      static_cast<double>(svc.queries_degraded_total));
  add("submit_queue_depth", static_cast<double>(svc.submit_queue_depth));
  // Wire front-door gauges: the network server increments them; all zero
  // for an in-process service, so dashboards query them unconditionally.
  add("net_connections_open",
      static_cast<double>(
          net_gauges_.connections_open.load(std::memory_order_relaxed)));
  add("net_requests_total",
      static_cast<double>(
          net_gauges_.requests_total.load(std::memory_order_relaxed)));
  add("net_bytes_in_total",
      static_cast<double>(
          net_gauges_.bytes_in_total.load(std::memory_order_relaxed)));
  add("net_bytes_out_total",
      static_cast<double>(
          net_gauges_.bytes_out_total.load(std::memory_order_relaxed)));
  add("net_result_cache_hits_total",
      static_cast<double>(
          net_gauges_.result_cache_hits.load(std::memory_order_relaxed)));
  // Per-tenant admission, aggregated: total cap rejections across tenants
  // and the highest in-flight-cost high-water mark any tenant reached.
  double tenant_rejected = 0;
  double tenant_inflight_max = 0;
  {
    std::shared_lock<std::shared_mutex> tenants_lock(tenants_mutex_);
    for (const auto& entry : tenants_) {
      tenant_rejected += static_cast<double>(
          entry.second->rejected.load(std::memory_order_relaxed));
      tenant_inflight_max = std::max(
          tenant_inflight_max,
          static_cast<double>(
              entry.second->inflight_max.load(std::memory_order_relaxed)));
    }
  }
  add("tenant_rejected_total", tenant_rejected);
  add("tenant_inflight_cost_max", tenant_inflight_max);

  // Phase 3 — swap the snapshot in: tombstone the previous rows (the
  // table has no AC indices, so no write hooks need to observe these) and
  // append the fresh ones, under the structural lock so no reader sees a
  // half-built table.
  Database::StructuralScope lock(&db_);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                        db_.catalog()->GetTable(kStatsTableName));
  TableHeap* heap = info->heap();
  for (auto it = heap->Begin(); it.Valid(); it.Next()) {
    BEAS_RETURN_NOT_OK(heap->Delete(it.slot()));
  }
  for (Row& row : rows) {
    heap->InsertUnchecked(std::move(row));
  }
  info->InvalidateStats();
  return Status::OK();
}

Result<ServiceResponse> BeasService::ExecuteUncachedQuery(
    const BoundQuery& query) {
  ServiceResponse resp;
  resp.cacheable = false;
  BEAS_ASSIGN_OR_RETURN(
      resp.result,
      session_.Execute(query, &resp.decision, options_.fallback_profile));
  return resp;
}

Result<QueryResponse> BeasService::ExecuteLocked(
    const QueryRequest& request, const TemplateInfo& tinfo,
    TenantState* tenant, std::vector<std::string>* tables_out) {
  // The canonical rendering when normalization changed the text (every
  // equivalent spelling then executes the identical query), the client's
  // original otherwise.
  const std::string& sql = tinfo.sql;
  const QueryOptions& qopts = request.options;
  if (!cache_enabled_.load(std::memory_order_relaxed) || !tinfo.have) {
    // Plan cache off, or malformed literal syntax (masking failed): let
    // the real front end handle it.
    BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_.Bind(sql));
    if (tables_out != nullptr) *tables_out = TablesReadBy(query);
    return ExecuteUncachedQuery(query);
  }
  const SqlTemplate& masked = tinfo.masked;

  QueryTemplate key;
  key.canonical = masked.text;
  key.hash = HashString(key.canonical);

  // --- Fast path: instantiate the cached template (the variant matching
  // this instance's frozen parameters), skipping parse+bind and the
  // coverage / partial-plan search. ---
  std::shared_ptr<const PlanCache::Entry> entry =
      cache_.Lookup(key, masked.params);
  BoundQuery query;
  bool have_query = false;
  if (entry != nullptr && entry->prepared != nullptr) {
    Result<BoundQuery> inst =
        InstantiatePrepared(*entry->prepared, masked.params);
    if (inst.ok()) {
      query = std::move(*inst);
      have_query = true;
      if (tables_out != nullptr) *tables_out = TablesReadBy(query);
      if (entry->covered) {
        Result<BoundedPlan> plan = RebindPlanConstants(entry->plan, query);
        if (plan.ok()) {
          ServiceResponse resp;
          resp.cache_hit = true;
          resp.template_hash = key.hash;
          BEAS_RETURN_NOT_OK(RunCoveredAdmitted(
              query, *plan, FastPathOptions(*entry), qopts, tenant, &resp));
          resp.decision.mode = BeasSession::ExecutionDecision::Mode::kBounded;
          resp.decision.deduced_bound = plan->total_access_bound;
          resp.decision.explanation = entry->covered_explanation;
          return resp;
        }
      } else if (entry->partial_computed) {
        // Copy only the cheap choice fields; the plan skeleton is copied
        // once, inside RebindPlanConstants.
        PartialPlanChoice choice;
        choice.found = entry->partial.found;
        choice.atom_enabled = entry->partial.atom_enabled;
        choice.conjunct_enabled = entry->partial.conjunct_enabled;
        bool rebound = true;
        if (choice.found) {
          Result<BoundedPlan> plan = RebindPlanConstants(
              entry->partial.plan, query, choice.conjunct_enabled);
          if (plan.ok()) {
            choice.plan = std::move(*plan);
          } else {
            rebound = false;
          }
        }
        if (rebound) {
          BoundedExecOptions exec_options;
          exec_options.collect_stats = false;
          exec_options.probe_pool = &pool_;
          BEAS_ASSIGN_OR_RETURN(
              PartialPlanResult partial,
              session_.ExecutePartialChoice(
                  query, choice, options_.fallback_profile, exec_options));
          ServiceResponse resp;
          resp.cache_hit = true;
          resp.template_hash = key.hash;
          resp.result = std::move(partial.result);
          resp.decision.mode =
              partial.any_bounded
                  ? BeasSession::ExecutionDecision::Mode::kPartiallyBounded
                  : BeasSession::ExecutionDecision::Mode::kConventional;
          resp.decision.deduced_bound = partial.fragment_access_bound;
          resp.decision.explanation = entry->reason + "; " +
                                      partial.description +
                                      " (cached template plan)";
          return resp;
        }
      }
      // Covered rebind mismatch, or a not-covered entry whose fallback was
      // never computed (strict-bounded / Check populated it): re-plan below
      // reusing the instantiated query.
    }
  }

  if (!have_query) {
    BEAS_ASSIGN_OR_RETURN(query, db_.Bind(sql));
    if (tables_out != nullptr) *tables_out = TablesReadBy(query);
  }
  return ExecuteMiss(sql, masked, std::move(query), qopts, tenant);
}

BoundedExecOptions BeasService::FastPathOptions(
    const PlanCache::Entry& entry) const {
  BoundedExecOptions options;
  options.collect_stats = false;
  options.compiled = entry.compiled.get();
  options.probe_pool = &pool_;
  return options;
}

std::shared_ptr<PlanCache::Entry> BeasService::MakeEntry(
    const std::string& sql, const SqlTemplate& masked,
    const QueryTemplate& tmpl, const BoundQuery& query,
    const CoverageResult& coverage) {
  auto entry = std::make_shared<PlanCache::Entry>();
  entry->covered = coverage.covered;
  entry->unsatisfiable = coverage.unsatisfiable;
  entry->plan = coverage.plan;
  entry->nodes_explored = coverage.nodes_explored;
  entry->reason = coverage.reason;
  entry->tables = tmpl.tables;
  if (coverage.covered) {
    entry->covered_explanation =
        BoundedExplanation(coverage.plan.total_access_bound, /*cached=*/true);
    // Compile the vectorized step programs once per template; every cache
    // hit executes with them directly (no per-query layout/rebind work).
    Result<CompiledPlan> compiled =
        CompileBoundedPlan(query, coverage.plan, catalog_);
    if (compiled.ok()) {
      entry->compiled =
          std::make_shared<const CompiledPlan>(std::move(*compiled));
    }
  }
  // Validate the hot-path masker against the reference lexer once per
  // template; on agreement the entry carries a substitutable binding.
  Result<SqlTemplate> reference = NormalizeSql(sql);
  if (reference.ok() && ParamsAgree(reference->params, masked.params)) {
    entry->prepared = std::make_shared<PreparedQuery>(
        PrepareQuery(BoundQuery(query), masked.params));
  }
  return entry;
}

Result<ServiceResponse> BeasService::ExecuteMiss(const std::string& sql,
                                                 const SqlTemplate& masked,
                                                 BoundQuery query,
                                                 const QueryOptions& qopts,
                                                 TenantState* tenant) {
  QueryTemplate tmpl = BuildQueryTemplate(masked, query);
  if (!tmpl.cacheable) {
    cache_.NoteUncacheable();
    ServiceResponse resp;
    BEAS_ASSIGN_OR_RETURN(resp, ExecuteUncachedQuery(query));
    resp.template_hash = tmpl.hash;
    return resp;
  }

  ServiceResponse resp;
  resp.template_hash = tmpl.hash;
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, session_.Check(query));
  std::shared_ptr<PlanCache::Entry> entry =
      MakeEntry(sql, masked, tmpl, query, coverage);

  if (coverage.covered) {
    // First execution of the template: full telemetry, but already with
    // the freshly compiled step programs and the probe pool.
    BoundedExecOptions exec_options;
    exec_options.compiled = entry->compiled.get();
    exec_options.probe_pool = &pool_;
    BEAS_RETURN_NOT_OK(RunCoveredAdmitted(query, coverage.plan, exec_options,
                                          qopts, tenant, &resp));
    resp.decision.mode = BeasSession::ExecutionDecision::Mode::kBounded;
    resp.decision.deduced_bound = coverage.plan.total_access_bound;
    resp.decision.explanation =
        BoundedExplanation(coverage.plan.total_access_bound, false);
  } else {
    BEAS_ASSIGN_OR_RETURN(PartialPlanChoice choice,
                          session_.ChoosePartialPlan(query));
    entry->partial_computed = true;
    entry->partial = choice;
    BEAS_ASSIGN_OR_RETURN(
        PartialPlanResult partial,
        session_.ExecutePartialChoice(query, choice,
                                      options_.fallback_profile));
    resp.result = std::move(partial.result);
    resp.decision.mode =
        partial.any_bounded
            ? BeasSession::ExecutionDecision::Mode::kPartiallyBounded
            : BeasSession::ExecutionDecision::Mode::kConventional;
    resp.decision.deduced_bound = partial.fragment_access_bound;
    resp.decision.explanation = coverage.reason + "; " + partial.description;
  }
  if (entry->prepared != nullptr) {
    QueryTemplate key;
    key.canonical = masked.text;
    key.hash = tmpl.hash;
    cache_.Insert(key, std::move(entry));
  } else {
    // Masker/lexer divergence: the template can never be served from the
    // cache, so the response must not claim eligibility.
    cache_.NoteUncacheable();
    resp.cacheable = false;
  }
  return resp;
}

Result<QueryResponse> BeasService::QueryBoundedOnly(
    const QueryRequest& request, TenantState* tenant) {
  TemplateInfo tinfo = PrepareTemplate(request.sql);
  Database::ReadScope lock(&db_);
  // Result-cache hit: short-circuit before the coverage check and before
  // any admission reservation. The mode byte in the key keeps bounded
  // answers separate from kAuto answers of the same template.
  std::string rkey;
  uint64_t rhash = 0;
  if (tinfo.have && result_cache_enabled_.load(std::memory_order_relaxed)) {
    rkey = ResultKeyFor(tinfo, QueryMode::kBoundedOnly, request.options);
    rhash = HashString(rkey);
    QueryResponse hit;
    if (LookupResult(rhash, rkey, &hit)) return hit;
  }
  bool cache_hit = false;
  BoundQuery query;
  std::shared_ptr<const PlanCache::Entry> entry;
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage,
                        CheckLocked(tinfo.sql, &cache_hit, &query, &entry));
  if (!coverage.covered) return Status::NotCovered(coverage.reason);
  // CheckLocked's plan is already rebound to this instance's constants.
  QueryResponse resp;
  resp.cache_hit = cache_hit;
  resp.covered = true;
  BoundedExecOptions exec_options;
  exec_options.probe_pool = &pool_;
  if (entry != nullptr) exec_options.compiled = entry->compiled.get();
  BEAS_RETURN_NOT_OK(RunCoveredAdmitted(query, coverage.plan, exec_options,
                                        request.options, tenant, &resp));
  resp.decision.mode = BeasSession::ExecutionDecision::Mode::kBounded;
  resp.decision.deduced_bound = coverage.plan.total_access_bound;
  resp.decision.explanation =
      BoundedExplanation(coverage.plan.total_access_bound, cache_hit);
  DetachResultStrings(&resp.result);
  if (!rkey.empty()) {
    MaybeStoreResult(rhash, rkey, resp, request.options, TablesReadBy(query));
  }
  return resp;
}

Result<ServiceResponse> BeasService::ExecuteBounded(const std::string& sql,
                                                    const QueryOptions& qopts) {
  QueryRequest request;
  request.sql = sql;
  request.mode = QueryMode::kBoundedOnly;
  request.options = qopts;
  return Query(request);
}

Result<QueryResponse> BeasService::QueryApproximate(const QueryRequest& request,
                                                    TenantState* tenant) {
  (void)tenant;  // counted by Query(); approximation self-bounds by budget
  if (request.approx_budget == 0) {
    return Status::InvalidArgument(
        "approximate mode requires a positive approx_budget");
  }
  Database::ReadScope lock(&db_);
  BoundQuery query;
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage,
                        CheckLocked(request.sql, nullptr, &query));
  if (!coverage.covered) {
    return Status::NotCovered("approximation requires a covered query: " +
                              coverage.reason);
  }
  BEAS_ASSIGN_OR_RETURN(
      ApproxResult approx,
      session_.ExecuteApproximate(query, coverage.plan, request.approx_budget));
  QueryResponse resp;
  resp.result = std::move(approx.result);
  resp.covered = true;
  resp.eta = approx.eta;
  resp.approx_exact = approx.exact;
  resp.approx_budget = approx.budget;
  resp.tuples_fetched = approx.tuples_fetched;
  resp.decision.mode = BeasSession::ExecutionDecision::Mode::kBounded;
  resp.decision.deduced_bound = coverage.plan.total_access_bound;
  resp.decision.explanation =
      "budgeted approximation (budget " + WithCommas(approx.budget) + ")";
  DetachResultStrings(&resp.result);
  return resp;
}

Result<ApproxResult> BeasService::ExecuteApproximate(const std::string& sql,
                                                     uint64_t budget) {
  QueryRequest request;
  request.sql = sql;
  request.mode = QueryMode::kApproximate;
  request.approx_budget = budget;
  BEAS_ASSIGN_OR_RETURN(QueryResponse resp, Query(request));
  ApproxResult approx;
  approx.result = std::move(resp.result);
  approx.eta = resp.eta;
  approx.budget = resp.approx_budget;
  approx.tuples_fetched = resp.tuples_fetched;
  approx.exact = resp.approx_exact;
  return approx;
}

Result<QueryResponse> BeasService::QueryCheckOnly(const QueryRequest& request) {
  Database::ReadScope lock(&db_);
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, CheckLocked(request.sql));
  QueryResponse resp;
  resp.covered = coverage.covered;
  resp.unsatisfiable = coverage.unsatisfiable;
  resp.reason = coverage.reason;
  resp.decision.deduced_bound =
      coverage.covered ? coverage.plan.total_access_bound : 0;
  resp.coverage = std::move(coverage);
  return resp;
}

Result<CoverageResult> BeasService::Check(const std::string& sql) {
  QueryRequest request;
  request.sql = sql;
  request.mode = QueryMode::kCheckOnly;
  BEAS_ASSIGN_OR_RETURN(QueryResponse resp, Query(request));
  return std::move(resp.coverage);
}

Result<CoverageResult> BeasService::CheckLocked(
    const std::string& sql, bool* cache_hit, BoundQuery* query_out,
    std::shared_ptr<const PlanCache::Entry>* entry_out) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (entry_out != nullptr) entry_out->reset();
  if (!cache_enabled_.load(std::memory_order_relaxed)) {
    BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_.Bind(sql));
    Result<CoverageResult> coverage = session_.Check(query);
    if (query_out != nullptr) *query_out = std::move(query);
    return coverage;
  }
  Result<SqlTemplate> masked_r = MaskSqlLiterals(sql);
  if (!masked_r.ok()) {
    BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_.Bind(sql));
    Result<CoverageResult> coverage = session_.Check(query);
    if (query_out != nullptr) *query_out = std::move(query);
    return coverage;
  }
  SqlTemplate masked = std::move(*masked_r);
  QueryTemplate key;
  key.canonical = masked.text;
  key.hash = HashString(key.canonical);

  std::shared_ptr<const PlanCache::Entry> entry =
      cache_.Lookup(key, masked.params);
  if (entry != nullptr && entry->prepared != nullptr) {
    Result<BoundQuery> inst =
        InstantiatePrepared(*entry->prepared, masked.params);
    if (inst.ok()) {
      Result<BoundedPlan> plan =
          entry->covered ? RebindPlanConstants(entry->plan, *inst)
                         : Result<BoundedPlan>(BoundedPlan(entry->plan));
      if (plan.ok()) {
        CoverageResult coverage;
        coverage.covered = entry->covered;
        coverage.unsatisfiable = entry->unsatisfiable;
        coverage.plan = std::move(*plan);
        coverage.reason = entry->reason;
        coverage.nodes_explored = entry->nodes_explored;  // search saved
        if (cache_hit != nullptr) *cache_hit = true;
        if (query_out != nullptr) *query_out = std::move(*inst);
        if (entry_out != nullptr) *entry_out = std::move(entry);
        return coverage;
      }
    }
  }

  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_.Bind(sql));
  QueryTemplate tmpl = BuildQueryTemplate(masked, query);
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, session_.Check(query));
  if (tmpl.cacheable) {
    std::shared_ptr<PlanCache::Entry> fresh =
        MakeEntry(sql, masked, tmpl, query, coverage);
    if (entry_out != nullptr) *entry_out = fresh;
    if (fresh->prepared != nullptr) {
      cache_.Insert(key, std::move(fresh));
    } else {
      cache_.NoteUncacheable();
    }
  } else {
    // Keep stats consistent with ExecuteLocked's uncacheable accounting.
    cache_.NoteUncacheable();
  }
  if (query_out != nullptr) *query_out = std::move(query);
  return coverage;
}

std::future<Result<QueryResponse>> BeasService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  // Bounded backlog: an overloaded service answers "no" in O(1) instead
  // of queueing work it cannot serve in time.
  uint64_t depth = submit_queue_depth_.fetch_add(1, std::memory_order_relaxed);
  if (depth >= options_.max_queue_depth) {
    submit_queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(Status::ResourceExhausted(
        "submit queue is full (" + std::to_string(options_.max_queue_depth) +
        " requests in flight)"));
    return future;
  }
  bool queued = pool_.Submit([this, promise, request = std::move(request)] {
    promise->set_value(Query(request));
    submit_queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  });
  if (!queued) {
    submit_queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    promise->set_value(Status::Unavailable("service is shutting down"));
  }
  return future;
}

std::future<Result<ServiceResponse>> BeasService::Submit(
    const std::string& sql, const QueryOptions& qopts) {
  QueryRequest request;
  request.sql = sql;
  request.options = qopts;
  return Submit(std::move(request));
}

}  // namespace beas
