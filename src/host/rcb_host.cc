#include "src/host/rcb_host.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// 409/410 have no HttpResponse factory (nothing else in the repo sheds with
// them); build them in place, the body being `detail` alone.
HttpResponse PlainResponse(int status_code, std::string_view detail) {
  HttpResponse response;
  response.status_code = status_code;
  response.reason = std::string(ReasonPhraseFor(status_code));
  response.headers.Set("Content-Type", "text/plain");
  response.body = std::string(detail);
  return response;
}

// Routed requests reach the agents through the front door, not their own
// ports, so it applies their head/body caps and read deadline itself. The
// connection cap stays per agent.
HttpServerLimits FrontDoorLimits(const AgentLimits& limits) {
  HttpServerLimits server = SocketLimits(limits);
  server.max_connections = 0;
  return server;
}

}  // namespace

RcbHost::RcbHost(EventLoop* loop, Network* network, HostConfig config)
    : loop_(loop),
      network_(network),
      config_(std::move(config)),
      flight_(&trace_, &registry_,
              obs::FlightRecorder::Options::For("host", config_.flight_dir)),
      front_door_(loop, network, "rcb-host",
                  FrontDoorLimits(config_.agent_defaults.limits),
                  {.on_request = [this](HttpServer::ConnId,
                                        const HttpRequest& request) {
                    return std::optional<HttpResponse>(Route(request));
                  }}) {
  RegisterHostMetrics();
}

// --- SessionPersist: the agent-to-store durability binding ---

SessionPersist::SessionPersist(RcbHost* host, std::string session_id,
                               std::unique_ptr<persist::SessionStore> store)
    : host_(host),
      session_id_(std::move(session_id)),
      store_(std::move(store)) {}

SessionPersist::~SessionPersist() {
  if (checkpoint_scheduled_) {
    host_->loop()->Cancel(checkpoint_event_id_);
  }
}

void SessionPersist::Append(persist::WalRecord record) {
  Status appended = store_->Append(record);
  if (!appended.ok()) {
    RCB_LOG(kWarning) << "rcb-host: WAL append for " << session_id_
                      << " failed: " << appended;
  }
  // Checkpoint lazily, one event later: the append happens mid-request, and
  // the checkpoint must see the agent quiescent (and not stall the response).
  if (store_->ShouldCheckpoint() && !checkpoint_scheduled_) {
    checkpoint_scheduled_ = true;
    checkpoint_event_id_ = host_->loop()->Schedule(Duration::Zero(), [this] {
      checkpoint_scheduled_ = false;
      Status written = host_->CheckpointSession(session_id_);
      if (!written.ok()) {
        RCB_LOG(kWarning) << "rcb-host: checkpoint for " << session_id_
                          << " failed: " << written;
      }
    });
  }
}

void SessionPersist::OnDocVersion(int64_t doc_time_ms) {
  persist::WalRecord record;
  record.type = persist::WalRecordType::kDocVersion;
  record.doc_time_ms = doc_time_ms;
  Append(std::move(record));
}

void SessionPersist::OnSeqAdvance(const std::string& pid, uint64_t seq) {
  persist::WalRecord record;
  record.type = persist::WalRecordType::kSeq;
  record.pid = pid;
  record.seq = seq;
  Append(std::move(record));
}

void SessionPersist::OnActionMerged(const std::string& pid,
                                    const UserAction& action) {
  persist::WalRecord record;
  record.type = persist::WalRecordType::kAction;
  record.pid = pid;
  record.action = action;
  Append(std::move(record));
}

void SessionPersist::OnParticipantJoined(const std::string& pid) {
  persist::WalRecord record;
  record.type = persist::WalRecordType::kJoin;
  record.pid = pid;
  Append(std::move(record));
}

void SessionPersist::OnParticipantLeft(const std::string& pid) {
  persist::WalRecord record;
  record.type = persist::WalRecordType::kLeave;
  record.pid = pid;
  Append(std::move(record));
}

RcbHost::~RcbHost() { Stop(); }

bool RcbHost::IsValidSessionId(const std::string& id) {
  if (id.empty() || id.size() > 64) {
    return false;
  }
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

Status RcbHost::Start() {
  if (running_) {
    return FailedPreconditionError("host already running");
  }
  RCB_RETURN_IF_ERROR(front_door_.Listen(config_.machine, config_.base_port));
  if (config_.limits.shared_cache_byte_budget > 0) {
    shared_cache_.set_byte_budget(config_.limits.shared_cache_byte_budget);
  }
  running_ = true;
  if (config_.persist.enabled()) {
    RecoverSessions();
  }
  return Status::Ok();
}

void RcbHost::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  front_door_.Stop();
  // Checkpoint-on-close: a cleanly stopped host leaves every session
  // recoverable (no-op with persistence off or after a simulated crash).
  CheckpointAllSessions();
  // Destroy sessions deterministically (map order) and fold their counters.
  // Persist files are kept — shutdown is not session end.
  std::vector<std::string> ids = SessionIds();
  for (const std::string& id : ids) {
    DestroySession(id, /*remove_persist=*/false);
  }
}

uint16_t RcbHost::AllocatePort() {
  if (!free_ports_.empty()) {
    // Lowest free port first: allocation order is deterministic regardless
    // of reap order.
    auto it = std::min_element(free_ports_.begin(), free_ports_.end());
    uint16_t port = *it;
    free_ports_.erase(it);
    return port;
  }
  return static_cast<uint16_t>(config_.base_port + next_port_offset_++);
}

StatusOr<HostSession*> RcbHost::CreateSession(const std::string& id) {
  return CreateSession(id, config_.agent_defaults);
}

StatusOr<HostSession*> RcbHost::CreateSession(const std::string& id,
                                              AgentConfig agent_config) {
  if (!IsValidSessionId(id)) {
    ++host_metrics_.invalid_session_ids;
    return InvalidArgumentError("invalid session id");
  }
  if (sessions_.contains(id)) {
    ++host_metrics_.session_id_collisions;
    return AlreadyExistsError("session id already exists: " + id);
  }
  // Admission: try to free capacity before shedding.
  if (config_.limits.max_sessions > 0 &&
      sessions_.size() >= config_.limits.max_sessions) {
    ReapIdleSessions();
  }
  if (config_.limits.max_sessions > 0 &&
      sessions_.size() >= config_.limits.max_sessions) {
    ++host_metrics_.sessions_rejected;
    return UnavailableError("session limit reached");
  }
  // A re-created id is a fresh session, not an expired one.
  if (reaped_ids_.erase(id) > 0) {
    reaped_order_.erase(
        std::find(reaped_order_.begin(), reaped_order_.end(), id));
  }

  StatusOr<std::unique_ptr<HostSession>> session =
      StartSession(id, AllocatePort(), std::move(agent_config), nullptr);
  RCB_RETURN_IF_ERROR(session.status());
  ++host_metrics_.sessions_created;
  HostSession* raw = session->get();
  sessions_.emplace(id, std::move(*session));
  // Baseline checkpoint: a session is recoverable from the moment it exists.
  if (raw->persist != nullptr) {
    Status baseline = raw->persist->store()->WriteCheckpoint(BuildCheckpoint(raw));
    if (!baseline.ok()) {
      RCB_LOG(kWarning) << "rcb-host: baseline checkpoint for " << id
                        << " failed: " << baseline;
    }
  }
  return raw;
}

StatusOr<std::unique_ptr<HostSession>> RcbHost::StartSession(
    const std::string& id, uint16_t port, AgentConfig agent_config,
    const persist::LoadResult* recovered) {
  auto session = std::make_unique<HostSession>();
  session->id = id;
  session->port = port;
  session->recovered = recovered != nullptr;
  if (config_.persist.enabled()) {
    auto store = std::make_unique<persist::SessionStore>(
        id, config_.persist, &persist_counters_, config_.process_faults);
    if (recovered != nullptr) {
      store->AdoptEpoch(recovered->epoch);
    }
    session->persist =
        std::make_unique<SessionPersist>(this, id, std::move(store));
    agent_config.state_observer = session->persist.get();
  }
  session->browser = std::make_unique<Browser>(loop_, network_, config_.machine);
  session->browser->UseSharedCache(&shared_cache_);
  agent_config.port = port;
  // A subdirectory per session: no two sessions write the same dump path.
  std::string flight_dir =
      obs::FlightRecorder::ResolveDir(agent_config.flight_dir);
  if (!flight_dir.empty()) {
    agent_config.flight_dir = (std::filesystem::path(flight_dir) / id).string();
  }
  // The shared cache budget is host-owned; a per-session budget would
  // clobber it for everyone.
  agent_config.limits.cache_byte_budget = 0;
  session->agent =
      std::make_unique<RcbAgent>(session->browser.get(), agent_config);
  Status started =
      recovered != nullptr
          ? session->agent->RestoreState(recovered->checkpoint.state)
          : Status::Ok();
  if (started.ok()) {
    started = session->agent->Start();
  }
  if (!started.ok()) {
    free_ports_.push_back(port);
    return started;
  }
  return session;
}

HostSession* RcbHost::FindSession(const std::string& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<std::string> RcbHost::SessionIds() const {
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    ids.push_back(id);
  }
  return ids;
}

void RcbHost::RememberReaped(const std::string& id) {
  if (reaped_ids_.insert(id).second) {
    reaped_order_.push_back(id);
    while (reaped_order_.size() > kReapedIdMemory) {
      reaped_ids_.erase(reaped_order_.front());
      reaped_order_.pop_front();
    }
  }
}

void RcbHost::DestroySession(const std::string& id, bool remove_persist) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  HostSession* session = it->second.get();
  if (remove_persist && session->persist != nullptr) {
    session->persist->store()->RemoveFiles();
  }
  const AgentMetrics& m = session->agent->metrics();
  retired_.doc_updates += m.doc_updates;
  retired_.generations += m.generations;
  retired_.snapshot_reuses += m.snapshot_reuses;
  retired_.polls_received += m.polls_received;
  retired_.polls_with_content += m.polls_with_content;
  retired_.content_bytes_sent += m.content_bytes_sent;
  retired_.total_generation_time += m.total_generation_time;
  session->agent->Stop();
  free_ports_.push_back(session->port);
  sessions_.erase(it);
  RememberReaped(id);
}

Status RcbHost::CloseSession(const std::string& id) {
  if (!sessions_.contains(id)) {
    return NotFoundError("no such session: " + id);
  }
  DestroySession(id, /*remove_persist=*/true);
  ++host_metrics_.sessions_closed;
  return Status::Ok();
}

size_t RcbHost::ReapIdleSessions() {
  if (config_.limits.session_idle_timeout <= Duration::Zero()) {
    return 0;
  }
  SimTime now = loop_->now();
  std::vector<std::string> idle;
  for (const auto& [id, session] : sessions_) {
    // A parked long-poll keeps the session alive regardless of request
    // activity: an idle page sends no requests while its participants wait
    // on the held connection.
    if (session->agent->parked_poll_count() > 0) {
      continue;
    }
    if (now - session->agent->last_activity() >
        config_.limits.session_idle_timeout) {
      idle.push_back(id);
    }
  }
  for (const std::string& id : idle) {
    DestroySession(id, /*remove_persist=*/true);
    ++host_metrics_.sessions_reaped;
  }
  return idle.size();
}

persist::SessionCheckpoint RcbHost::BuildCheckpoint(HostSession* session) const {
  persist::SessionCheckpoint checkpoint;
  checkpoint.session_id = session->id;
  checkpoint.created_at_us = loop_->now().micros();
  const AgentConfig& agent_config = session->agent->config();
  checkpoint.config.session_key = agent_config.session_key;
  checkpoint.config.poll_interval_ms = agent_config.poll_interval.millis();
  checkpoint.config.cache_mode = agent_config.cache_mode;
  checkpoint.config.enable_delta = agent_config.enable_delta;
  checkpoint.config.enable_trace = agent_config.enable_trace;
  checkpoint.config.port = session->port;
  checkpoint.state = session->agent->ExportState();
  return checkpoint;
}

Status RcbHost::CheckpointSession(const std::string& id) {
  HostSession* session = FindSession(id);
  if (session == nullptr || session->persist == nullptr) {
    return Status::Ok();
  }
  return session->persist->store()->WriteCheckpoint(BuildCheckpoint(session));
}

void RcbHost::CheckpointAllSessions() {
  for (const auto& [id, session] : sessions_) {
    if (session->persist == nullptr) {
      continue;
    }
    Status written =
        session->persist->store()->WriteCheckpoint(BuildCheckpoint(session.get()));
    if (!written.ok()) {
      RCB_LOG(kWarning) << "rcb-host: shutdown checkpoint for " << id
                        << " failed: " << written;
    }
  }
}

void RcbHost::RecoverSessions() {
  namespace fs = std::filesystem;
  std::error_code ec;
  // Stale staging files are dead on arrival (the rename never happened).
  for (const auto& entry : fs::directory_iterator(config_.persist.dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }
  std::vector<std::string> checkpoints;
  for (const auto& entry : fs::directory_iterator(config_.persist.dir, ec)) {
    if (entry.path().extension() == ".ckpt") {
      checkpoints.push_back(entry.path().string());
    }
  }
  // Deterministic recovery order regardless of directory iteration order.
  std::sort(checkpoints.begin(), checkpoints.end());
  for (const std::string& checkpoint_path : checkpoints) {
    std::string wal_path =
        checkpoint_path.substr(0, checkpoint_path.size() - 5) + ".wal";
    int64_t start_us = loop_->now().micros();
    Status recovered = RecoverOne(checkpoint_path, wal_path);
    if (!recovered.ok()) {
      // The ladder's last rung: quarantine this session's files and move on.
      // A corrupt checkpoint degrades one session, never the host.
      ++host_metrics_.sessions_unrecoverable;
      std::error_code rename_ec;
      fs::rename(checkpoint_path, checkpoint_path + ".corrupt", rename_ec);
      fs::rename(wal_path, wal_path + ".corrupt", rename_ec);
      RCB_LOG(kWarning) << "rcb-host: session quarantined during recovery: "
                        << recovered;
    }
    trace_.Append(recovered.ok() ? "host.recovery.session"
                                 : "host.recovery.quarantine",
                  obs::Provenance::kSim, start_us,
                  loop_->now().micros() - start_us);
    // Every recovery, clean or degraded, freezes the moment (trace ring +
    // metrics snapshot) for post-hoc forensics.
    flight_.Trigger("host_recovery", loop_->now().micros());
  }
}

Status RcbHost::RecoverOne(const std::string& checkpoint_path,
                           const std::string& wal_path) {
  auto loaded =
      persist::LoadSession(checkpoint_path, wal_path, &persist_counters_);
  RCB_RETURN_IF_ERROR(loaded.status());
  const persist::SessionCheckpoint& checkpoint = loaded->checkpoint;
  const std::string& id = checkpoint.session_id;
  if (!IsValidSessionId(id)) {
    return AbortedError("recovered checkpoint carries an invalid session id");
  }
  // The file must be the session it claims to be: a checkpoint copied over
  // another session's slot passes its own digests but not this gate.
  if (std::filesystem::path(checkpoint_path).stem().string() != id) {
    return AbortedError("checkpoint file name does not match its session id");
  }
  if (sessions_.contains(id)) {
    return AlreadyExistsError("recovered session id already live: " + id);
  }
  uint16_t port = checkpoint.config.port;
  if (port <= config_.base_port) {
    return AbortedError("checkpoint port outside the host's range");
  }
  // Snippets poll the session port directly, so recovery must reopen the
  // same one; keep the allocator clear of it.
  free_ports_.erase(std::remove(free_ports_.begin(), free_ports_.end(), port),
                    free_ports_.end());
  if (port >= config_.base_port + next_port_offset_) {
    next_port_offset_ = static_cast<uint16_t>(port - config_.base_port + 1);
  }

  // The session must run under the configuration its participants negotiated
  // against (key above all: their polls are signed with it).
  AgentConfig agent_config = config_.agent_defaults;
  agent_config.session_key = checkpoint.config.session_key;
  agent_config.poll_interval =
      Duration::Millis(checkpoint.config.poll_interval_ms);
  agent_config.cache_mode = checkpoint.config.cache_mode;
  agent_config.enable_delta = checkpoint.config.enable_delta;
  agent_config.enable_trace = checkpoint.config.enable_trace;

  StatusOr<std::unique_ptr<HostSession>> started =
      StartSession(id, port, std::move(agent_config), &*loaded);
  RCB_RETURN_IF_ERROR(started.status());
  std::unique_ptr<HostSession>& session = *started;
  if (loaded->wal_tail_discarded) {
    ++host_metrics_.wal_tails_discarded;
  }
  host_metrics_.doc_versions_lost += loaded->doc_versions_lost;
  // Restart-storm protection: spread resync readmission across the window,
  // each session at a deterministic slot derived from its id.
  if (config_.recovery_storm_window > Duration::Zero()) {
    uint64_t slot_ms =
        StableHash64(id) %
        static_cast<uint64_t>(config_.recovery_storm_window.millis() + 1);
    session->agent->DeferResyncAdmissionUntil(
        loop_->now() + Duration::Millis(static_cast<int64_t>(slot_ms)));
  }
  HostSession* raw = session.get();
  sessions_.emplace(id, std::move(session));
  ++host_metrics_.sessions_recovered;
  // Re-baseline: fold the replayed WAL into a fresh checkpoint so the
  // superseded epoch's log cannot replay twice.
  Status baseline = raw->persist->store()->WriteCheckpoint(BuildCheckpoint(raw));
  if (!baseline.ok()) {
    RCB_LOG(kWarning) << "rcb-host: recovery re-baseline for " << id
                      << " failed: " << baseline;
  }
  return Status::Ok();
}

HttpResponse RcbHost::Route(const HttpRequest& request) {
  ++host_metrics_.front_door_requests;
  ReapIdleSessions();
  std::string path = request.Path();
  if (path == "/host/status" && request.method == HttpMethod::kGet) {
    return HandleHostStatus();
  }
  if ((path == "/host/metrics" || path == "/host/health") &&
      request.method == HttpMethod::kGet) {
    // Both name every session, so both take the template's session key.
    if (!VerifyRequestMac(config_.agent_defaults.session_key, request)) {
      flight_.Trigger("auth_failure", loop_->now().micros());
      return HttpResponse::Forbidden("request authentication failed");
    }
    return path == "/host/metrics" ? HandleHostMetrics(request)
                                   : HandleHostHealth();
  }
  if (path == "/host/sessions") {
    if (request.method != HttpMethod::kPost) {
      return HttpResponse::BadRequest("session creation is POST");
    }
    return HandleCreateSession(request);
  }
  if (StartsWith(path, "/s/")) {
    return HandleSessionRequest(request);
  }
  return HttpResponse::NotFound(path);
}

HttpResponse RcbHost::HandleCreateSession(const HttpRequest& request) {
  auto params = request.QueryParams();
  auto id_it = params.find("id");
  std::string id = id_it == params.end() ? "" : id_it->second;
  StatusOr<HostSession*> session = CreateSession(id);
  if (!session.ok()) {
    switch (session.status().code()) {
      case StatusCode::kInvalidArgument:
        return HttpResponse::BadRequest(session.status().message());
      case StatusCode::kAlreadyExists:
        return PlainResponse(409, session.status().message());
      case StatusCode::kUnavailable:
        return HttpResponse::ServiceUnavailable(
            JitteredRetryAfter(config_.limits.retry_after,
                               config_.limits.retry_after_jitter,
                               id.empty() ? "create" : id),
            session.status().message());
      default:
        return HttpResponse::InternalError(session.status().message());
    }
  }
  return HttpResponse::Ok(
      "text/plain",
      StrFormat("id=%s&port=%u", (*session)->id.c_str(),
                static_cast<unsigned>((*session)->port)));
}

HttpResponse RcbHost::HandleSessionRequest(const HttpRequest& request) {
  // /s/<id><rest>: split the id, validate, forward <rest> to the session's
  // agent with the query string intact.
  std::string path = request.Path();
  std::string after = path.substr(3);  // past "/s/"
  size_t slash = after.find('/');
  std::string id = slash == std::string::npos ? after : after.substr(0, slash);
  std::string rest = slash == std::string::npos ? "/" : after.substr(slash);
  if (!IsValidSessionId(id)) {
    ++host_metrics_.invalid_session_ids;
    return HttpResponse::BadRequest("invalid session id");
  }
  HostSession* session = FindSession(id);
  if (session == nullptr) {
    if (reaped_ids_.contains(id)) {
      ++host_metrics_.expired_session_requests;
      return PlainResponse(410, "session expired: " + id);
    }
    ++host_metrics_.unknown_session_requests;
    return HttpResponse::NotFound("no such session: " + id);
  }
  HttpRequest forwarded = request;
  forwarded.target = rest;
  std::string query = request.QueryString();
  if (!query.empty()) {
    forwarded.target += "?" + query;
  }
  return session->agent->HandleHostRequest(forwarded);
}

HttpResponse RcbHost::HandleHostStatus() const {
  std::string body = "<h1>RCB host</h1>";
  body += StrFormat("<p id=\"mode\">session cap %zu</p>",
                    config_.limits.max_sessions);
  body += "<table id=\"sessions\"><tr><th>session</th><th>port</th>"
          "<th>participants</th><th>doc updates</th><th>generations</th>"
          "<th>reuses</th></tr>";
  for (const auto& [id, session] : sessions_) {
    const AgentMetrics& m = session->agent->metrics();
    body += StrFormat(
        "<tr><td>%s</td><td>%u</td><td>%zu</td><td>%llu</td><td>%llu</td>"
        "<td>%llu</td></tr>",
        id.c_str(), static_cast<unsigned>(session->port),
        session->agent->participant_count(),
        static_cast<unsigned long long>(m.doc_updates),
        static_cast<unsigned long long>(m.generations),
        static_cast<unsigned long long>(m.snapshot_reuses));
  }
  body += "</table>";
  // The host's own families; each session's are on its /s/<id>/status.
  body += "<pre id=\"metrics\">" + obs::RenderSimValueLines(registry_) +
          "</pre>";
  return HttpResponse::Ok(
      "text/html", "<!DOCTYPE html><html><head><title>RCB host</title>"
                   "</head><body>" +
                       body + "</body></html>");
}

HttpResponse RcbHost::HandleHostMetrics(const HttpRequest& request) const {
  obs::RenderOptions options;
  auto params = request.QueryParams();
  auto view = params.find("view");
  if (view != params.end() && view->second == "sim") {
    options.include_wall = false;
  }
  std::vector<obs::RenderPart> parts = {{&registry_, ""}};
  for (const auto& [id, session] : sessions_) {
    parts.push_back({&session->agent->metrics_registry(),
                     StrFormat("session=\"%s\"", id.c_str())});
  }
  return HttpResponse::Ok("text/plain; version=0.0.4; charset=utf-8",
                          obs::RenderPrometheus(parts, options));
}

HttpResponse RcbHost::HandleHostHealth() {
  int64_t now_us = loop_->now().micros();
  struct Row {
    const std::string* id;
    int severity;  // HealthScore rank: unhealthy=2 sorts first
    double slow_burn;
    std::string json;
  };
  size_t counts[3] = {0, 0, 0};
  std::vector<Row> rows;
  rows.reserve(sessions_.size());
  std::vector<std::string> alerts;  // "<session>:<objective>", id order
  for (auto& [id, session] : sessions_) {
    obs::SessionHealth& health = session->agent->session_health();
    obs::HealthStatus status = health.Evaluate(now_us);
    int severity = static_cast<int>(status.score);
    ++counts[severity];
    for (std::string_view alert : status.ActiveAlerts()) {
      alerts.push_back(id + ":" + std::string(alert));
    }
    // Splice the session id into the per-session health object:
    // {"id":"<id>",<health fields>}.
    rows.push_back(Row{&id, severity, status.MaxSlowBurn(),
                       "{\"id\":\"" + JsonEscape(id) + "\"," +
                           health.ToJson(now_us).substr(1)});
  }
  // Worst first: score severity, then the hottest slow burn, id as the
  // deterministic tiebreak (rcb_top renders the array as-is).
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.severity != b.severity) return a.severity > b.severity;
    if (a.slow_burn != b.slow_burn) return a.slow_burn > b.slow_burn;
    return *a.id < *b.id;
  });
  std::string body = StrFormat(
      "{\"sim_time_us\":%lld,\"sessions_total\":%zu,"
      "\"summary\":{\"green\":%zu,\"degraded\":%zu,\"unhealthy\":%zu}",
      static_cast<long long>(now_us), rows.size(), counts[0], counts[1],
      counts[2]);
  body += ",\"alerts\":[";
  for (size_t i = 0; i < alerts.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + JsonEscape(alerts[i]) + "\"";
  }
  body += "],\"sessions\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) body += ",";
    body += rows[i].json;
  }
  body += "]}";
  return HttpResponse::Ok("application/json", body + "\n");
}

uint64_t RcbHost::SumAgents(uint64_t AgentMetrics::*field,
                            uint64_t retired) const {
  uint64_t total = retired;
  for (const auto& [id, session] : sessions_) {
    total += session->agent->metrics().*field;
  }
  return total;
}

void RcbHost::RegisterHostMetrics() {
  auto field = [this](std::string_view name, std::string_view help,
                      const uint64_t& source) {
    registry_.AddCallbackCounter(name, help, obs::Provenance::kSim,
                                 [&source] { return source; });
  };
  field("rcb_host_sessions_created", "Sessions created",
        host_metrics_.sessions_created);
  field("rcb_host_sessions_closed", "Sessions closed explicitly",
        host_metrics_.sessions_closed);
  field("rcb_host_sessions_reaped", "Sessions reaped by the idle timeout",
        host_metrics_.sessions_reaped);
  field("rcb_host_sessions_rejected", "503s at the session cap",
        host_metrics_.sessions_rejected);
  field("rcb_host_session_id_collisions", "409s creating an existing id",
        host_metrics_.session_id_collisions);
  field("rcb_host_invalid_session_ids", "400s for malformed session ids",
        host_metrics_.invalid_session_ids);
  field("rcb_host_unknown_session_requests", "404s routing to absent ids",
        host_metrics_.unknown_session_requests);
  field("rcb_host_expired_session_requests", "410s routing to reaped ids",
        host_metrics_.expired_session_requests);
  field("rcb_host_front_door_requests", "Requests seen by the front door",
        host_metrics_.front_door_requests);
  field("rcb_host_recovered_sessions_total",
        "Sessions restored from checkpoints on host start",
        host_metrics_.sessions_recovered);
  field("rcb_host_unrecoverable_sessions_total",
        "Sessions quarantined by recovery integrity gates",
        host_metrics_.sessions_unrecoverable);
  field("rcb_host_wal_tails_discarded_total",
        "Torn WAL tails cut during recovery",
        host_metrics_.wal_tails_discarded);
  field("rcb_host_doc_versions_lost_total",
        "Post-checkpoint document versions not restorable after a crash",
        host_metrics_.doc_versions_lost);

  // Durability plumbing (src/persist), shared across all session stores.
  field("rcb_persist_checkpoints_written_total", "Checkpoints written",
        persist_counters_.checkpoints_written);
  field("rcb_persist_checkpoint_bytes_total", "Checkpoint bytes written",
        persist_counters_.checkpoint_bytes);
  field("rcb_persist_wal_records_total", "WAL records appended",
        persist_counters_.wal_records);
  field("rcb_persist_wal_bytes_total", "WAL bytes appended",
        persist_counters_.wal_bytes);
  field("rcb_persist_wal_truncations_total",
        "WAL truncations by checkpoint-and-truncate",
        persist_counters_.wal_truncations);
  field("rcb_persist_torn_writes_total",
        "Crash-injected partial writes reaching disk",
        persist_counters_.torn_writes);
  field("rcb_persist_wal_tail_discards_total",
        "Recovery scans that cut a torn WAL tail",
        persist_counters_.wal_tail_discards);
  field("rcb_persist_wals_discarded_total",
        "Whole WALs dropped at recovery (header or epoch gate)",
        persist_counters_.wals_discarded);
  field("rcb_persist_checkpoints_rejected_total",
        "Checkpoints rejected by recovery integrity gates",
        persist_counters_.checkpoints_rejected);

  // Host anomaly recorder: recovery is the trigger; the counters stay
  // deterministic whether or not artifacts are written.
  registry_.AddCallbackCounter(
      "rcb_flight_triggers_total", "Flight-recorder trigger firings",
      obs::Provenance::kSim,
      [this] { return flight_.triggers("host_recovery"); },
      "component=\"host\",trigger=\"host_recovery\"");
  registry_.AddCallbackCounter(
      "rcb_flight_dumps_written", "Flight-recorder JSONL artifacts written",
      obs::Provenance::kSim, [this] { return flight_.dumps_written(); },
      "component=\"host\"");
  registry_.AddCallbackCounter(
      "rcb_host_recovery_deferrals_total",
      "503s staggering post-recovery resync admission, across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::recovery_deferrals, 0);
      });

  registry_.AddCallbackGauge(
      "rcb_host_sessions", "Live sessions", obs::Provenance::kSim,
      [this] { return static_cast<double>(sessions_.size()); });
  registry_.AddCallbackGauge(
      "rcb_host_participants", "Participants across all live sessions",
      obs::Provenance::kSim, [this] {
        size_t total = 0;
        for (const auto& [id, session] : sessions_) {
          total += session->agent->participant_count();
        }
        return static_cast<double>(total);
      });

  // The generate-once proof (ISSUE 6): pipeline runs track document updates,
  // fan-out sends track updates x participants. bench_scale and host_test
  // assert runs ~= updates.
  registry_.AddCallbackCounter(
      "rcb_host_doc_updates_total", "Document versions across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::doc_updates, retired_.doc_updates);
      });
  registry_.AddCallbackCounter(
      "rcb_host_pipeline_runs_total",
      "Fig. 3 generate+diff pipeline executions across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::generations, retired_.generations);
      });
  registry_.AddCallbackCounter(
      "rcb_host_snapshot_reuses_total",
      "Broadcast-buffer reuses across all sessions", obs::Provenance::kSim,
      [this] {
        return SumAgents(&AgentMetrics::snapshot_reuses,
                         retired_.snapshot_reuses);
      });
  registry_.AddCallbackCounter(
      "rcb_host_polls_total", "Polls received across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::polls_received,
                         retired_.polls_received);
      });
  registry_.AddCallbackCounter(
      "rcb_host_fanout_sends_total",
      "Content-bearing responses fanned out across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::polls_with_content,
                         retired_.polls_with_content);
      });
  registry_.AddCallbackCounter(
      "rcb_host_content_bytes_total",
      "Content-bearing response bytes across all sessions",
      obs::Provenance::kSim, [this] {
        return SumAgents(&AgentMetrics::content_bytes_sent,
                         retired_.content_bytes_sent);
      });
  registry_.AddCallbackGauge(
      "rcb_host_generation_us_total",
      "Cumulative Fig. 3 pipeline CPU time across all sessions",
      obs::Provenance::kWall, [this] {
        Duration total = retired_.total_generation_time;
        for (const auto& [id, session] : sessions_) {
          total += session->agent->metrics().total_generation_time;
        }
        return static_cast<double>(total.micros());
      });

  // Shared ObjectCache, registered once host-side (session agents skip it).
  RegisterObjectCacheMetrics(&shared_cache_, &registry_);
}

}  // namespace rcb
