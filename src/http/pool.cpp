#include "http/pool.h"

#include <algorithm>

#include "common/clock.h"
#include "obs/metrics.h"

namespace mrs {

namespace {
struct PoolCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* stale_closed;
  obs::Counter* discards;
  obs::Gauge* idle;
  obs::Gauge* peers;

  static PoolCounters& Get() {
    static PoolCounters c = [] {
      obs::Registry& reg = obs::Registry::Instance();
      return PoolCounters{reg.GetCounter("mrs.http.pool.hits"),
                          reg.GetCounter("mrs.http.pool.misses"),
                          reg.GetCounter("mrs.http.pool.evictions"),
                          reg.GetCounter("mrs.http.pool.stale_closed"),
                          reg.GetCounter("mrs.http.pool.discards"),
                          reg.GetGauge("mrs.http.pool.idle"),
                          reg.GetGauge("mrs.http.pool.peers")};
    }();
    return c;
  }
};
}  // namespace

ConnectionPool& ConnectionPool::Instance() {
  static ConnectionPool* pool = new ConnectionPool();
  return *pool;
}

ConnectionPool::Lease::~Lease() {
  if (pool_ == nullptr || client_ == nullptr) return;
  // Only live connections are worth pooling; a client whose socket went
  // away (server sent Connection: close, or an error path forgot to
  // Discard) would just be a guaranteed reconnect for the next user.
  if (discard_ || !client_->connected()) {
    PoolCounters::Get().discards->Inc();
    return;
  }
  pool_->Release(key_, std::move(client_));
}

ConnectionPool::Lease ConnectionPool::Acquire(const SocketAddr& addr) {
  std::string key = addr.ToString();
  double now = RealClock::Instance().Now();
  {
    MutexLock lock(mutex_);
    auto it = idle_.find(key);
    if (it != idle_.end()) {
      std::deque<IdleEntry>& entries = it->second;
      // Prefer the most recently released connection (warmest, least
      // likely to have been closed by the peer); close stale ones.
      while (!entries.empty()) {
        IdleEntry entry = std::move(entries.back());
        entries.pop_back();
        --idle_total_;
        if (now - entry.released_at > config_.max_idle_seconds) {
          PoolCounters::Get().stale_closed->Inc();
          continue;  // destroying the entry closes the connection
        }
        if (entries.empty()) idle_.erase(it);
        UpdateGaugesLocked();
        PoolCounters::Get().hits->Inc();
        return Lease(this, std::move(key), std::move(entry.client));
      }
      idle_.erase(it);
      UpdateGaugesLocked();
    }
  }
  PoolCounters::Get().misses->Inc();
  // HttpClient connects lazily on first request.
  return Lease(this, std::move(key), std::make_unique<HttpClient>(addr));
}

void ConnectionPool::Release(const std::string& key,
                             std::unique_ptr<HttpClient> client) {
  MutexLock lock(mutex_);
  // Evict before taking a reference into the map: EvictLruLocked erases
  // deques it empties.
  for (auto it = idle_.find(key);
       it != idle_.end() && it->second.size() >= config_.max_idle_per_peer;
       it = idle_.find(key)) {
    if (!EvictLruLocked(&key)) break;
  }
  while (idle_total_ >= config_.max_idle_total) {
    if (!EvictLruLocked(nullptr)) break;
  }
  std::deque<IdleEntry>& entries = idle_[key];
  IdleEntry entry;
  entry.client = std::move(client);
  entry.released_at = RealClock::Instance().Now();
  entry.lru_seq = next_seq_++;
  entries.push_back(std::move(entry));
  ++idle_total_;
  UpdateGaugesLocked();
}

bool ConnectionPool::EvictLruLocked(const std::string* key_only) {
  std::map<std::string, std::deque<IdleEntry>>::iterator victim = idle_.end();
  if (key_only != nullptr) {
    victim = idle_.find(*key_only);
  } else {
    uint64_t oldest = UINT64_MAX;
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      if (it->second.empty()) continue;
      if (it->second.front().lru_seq < oldest) {
        oldest = it->second.front().lru_seq;
        victim = it;
      }
    }
  }
  if (victim == idle_.end() || victim->second.empty()) return false;
  victim->second.pop_front();  // oldest entry of that peer
  --idle_total_;
  if (victim->second.empty()) idle_.erase(victim);
  PoolCounters::Get().evictions->Inc();
  return true;
}

Result<HttpResponse> ConnectionPool::Do(const SocketAddr& addr,
                                        HttpRequest req) {
  Lease lease = Acquire(addr);
  Result<HttpResponse> resp = lease->Do(std::move(req));
  if (!resp.ok()) lease.Discard();
  return resp;
}

Result<HttpResponse> ConnectionPool::Get(const SocketAddr& addr,
                                         std::string_view target) {
  HttpRequest req;
  req.method = "GET";
  req.target = std::string(target);
  return Do(addr, std::move(req));
}

size_t ConnectionPool::IdleCount() const {
  MutexLock lock(mutex_);
  return idle_total_;
}

size_t ConnectionPool::IdleCount(const SocketAddr& addr) const {
  MutexLock lock(mutex_);
  auto it = idle_.find(addr.ToString());
  return it == idle_.end() ? 0 : it->second.size();
}

void ConnectionPool::Clear() {
  MutexLock lock(mutex_);
  idle_.clear();
  idle_total_ = 0;
  UpdateGaugesLocked();
}

void ConnectionPool::UpdateGaugesLocked() {
  PoolCounters::Get().idle->Set(static_cast<double>(idle_total_));
  PoolCounters::Get().peers->Set(static_cast<double>(idle_.size()));
}

Result<std::string> HttpFetch(std::string_view url) {
  MRS_ASSIGN_OR_RETURN(HttpUrl parsed, HttpUrl::Parse(url));
  HttpRequest req;
  req.method = "GET";
  req.target = parsed.target;
  req.headers.Set(std::string(kMrsFormatHeader),
                  std::string(kXxh64ChecksumFormat));
  Result<HttpResponse> got = ConnectionPool::Instance().Do(
      SocketAddr{parsed.host, parsed.port}, std::move(req));
  if (!got.ok()) {
    // Keep the URL in the message: the slave's failure report extracts it
    // as bad_url, which is what triggers the master's lineage recovery
    // when the hosting peer is dead (connection refused has no response).
    return Status(got.status().code(),
                  "GET " + std::string(url) + ": " + got.status().message());
  }
  HttpResponse resp = std::move(*got);
  MRS_RETURN_IF_ERROR(FetchStatusFromHttpCode(url, resp.status_code));
  MRS_RETURN_IF_ERROR(VerifyFetchChecksum(url, resp));
  return std::move(resp.body);
}

}  // namespace mrs
