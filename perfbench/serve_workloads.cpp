// serve-hot and serve-cold: the toolchain's side of pulpclass, asking an
// in-process serve::Server for the energy-optimal core count over TCP.
//
// Load: one closed-loop client thread with kConnections connections,
// each keeping a fixed number of pipelined requests in flight. With one
// server worker and two shard batchers featurizing inline, that is four
// busy threads. The pipelines are deep enough that every shard's queue
// always holds a full micro-batch, so a run measures the server's
// capacity and no thread sleeps between batches: a cold request costs
// about 0.5 ms, so 64 in flight do; a hot one costs microseconds, so
// serve-hot keeps 256 in flight. With 16 hot requests in flight each
// batch waited out the batch linger and throughput followed thread
// wake-up latency, which swung by 2x between runs on a shared host; with
// 64 the median round still moved by 14% from run to run. At 256 cold
// requests in flight the median latency is mostly queueing and moved by
// 10% from run to run, against 4% at 64.
//
// Traced runs cannot see inside the server (the library records no
// spans), so after the server stops they replay the first timed
// requests through the same public functions the request path calls
// (parse_request, ShardedService::shard_for, lower_sample,
// EnergyClassifier::feature_row/predict_rows, format_reply_v2) on a
// shadow service, with a span around each call.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/artifacts.hpp"
#include "core/classifier.hpp"
#include "core/parallel.hpp"
#include "feat/features.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"

namespace perfbench {

using namespace pulpc;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kHotPipeline = 64;   ///< per connection
constexpr std::size_t kColdPipeline = 16;  ///< per connection
/// serve-hot: every registry (kernel, dtype) pair at this size.
constexpr std::uint32_t kHotSize = 4096;
/// serve-cold: sizes from kColdMin to kColdMax in steps of kColdStep,
/// one size per distinct lowered program: about 30k programs, far more
/// than the router (4096) and shard (2 x 1024) caches hold.
constexpr std::uint32_t kColdMin = 512;
constexpr std::uint32_t kColdMax = 32768;
constexpr std::uint32_t kColdStep = 64;
/// Requests per timed round.
constexpr std::size_t kHotRound = 4000;
constexpr std::size_t kColdRound = 1000;
/// Untimed requests before timing: every hot pair several times, or
/// enough cold requests to fill the router and shard caches, so the
/// timed phase inserts and evicts.
constexpr std::size_t kHotPrime = 2000;
constexpr std::size_t kColdPrime = 5000;
/// Timed requests replayed through the shadow path in a traced run.
constexpr std::size_t kReplay = 2000;

struct Pair {
  std::string kernel;
  kir::DType dtype;
};

/// The 112 registry (kernel, dtype) pairs.
std::vector<Pair> registry_pairs() {
  std::vector<Pair> out;
  for (const kernels::KernelInfo& k : kernels::builtin_kernels()) {
    for (const kir::DType t : {kir::DType::I32, kir::DType::F32}) {
      if (k.supports(t)) out.push_back({k.name, t});
    }
  }
  return out;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions so;
  so.port = 0;  // ephemeral
  so.workers = 1;
  so.shards = 2;
  so.threads = 1;  // shard batchers featurize inline
  so.max_batch = 16;
  so.batch_linger_us = 200;
  so.cache_capacity = 1024;
  so.router_cache = 4096;
  // No client keeps more in flight than serve-hot's, so nothing is shed.
  so.max_in_flight = kConnections * kHotPipeline;
  so.request_timeout_ms = 5000;
  return so;
}

/// Train the serving model: static features of every paper
/// configuration, labelled with the reference labels.
core::EnergyClassifier train_model(const std::vector<RefSample>& ref) {
  core::ThreadPool pool(kThreads);
  const mca::MachineModel mm;
  std::vector<std::vector<double>> feats =
      pool.parallel_map<std::vector<double>>(ref.size(), [&](std::size_t i) {
        return feat::extract_static(core::lower_sample(ref[i].cfg), mm)
            .to_vector();
      });
  ml::Dataset ds(feat::static_feature_names());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ml::Sample s;
    s.kernel = ref[i].cfg.kernel;
    s.suite = kernels::kernel_info(s.kernel).suite;
    s.dtype = ref[i].cfg.dtype;
    s.size_bytes = ref[i].cfg.size_bytes;
    s.label = ref[i].label;
    s.energy = ref[i].energy;
    s.cycles = ref[i].cycles;
    s.features = std::move(feats[i]);
    ds.add(std::move(s));
  }
  core::EnergyClassifier clf;
  clf.train(ds);
  return clf;
}

std::string request_line(std::uint64_t id, const Pair& p, std::uint32_t size) {
  return "{\"v\":2,\"id\":" + std::to_string(id) +
         ",\"cmd\":\"predict\",\"kernel\":\"" + p.kernel + "\",\"dtype\":\"" +
         kir::to_string(p.dtype) + "\",\"bytes\":" + std::to_string(size) +
         "}\n";
}

/// Per-request record of the client.
struct Rec {
  Clock::time_point sent, recv;
  double micros = 0;  ///< Result::micros as reported in the reply
  int cores = 0;
  bool ok = false;
  bool done = false;
};

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Closed-loop client: kConnections connections, `pipeline` requests in
/// flight on each, one poll(2) loop on the calling thread.
class Client {
 public:
  Client(std::uint16_t port, std::size_t pipeline,
         const std::vector<Pair>& pairs, const std::vector<RequestSpec>& specs,
         std::vector<Rec>& recs)
      : pipeline_(pipeline), pairs_(pairs), specs_(specs), recs_(recs) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = dial(port);
      conns_.push_back(std::move(c));
    }
  }
  ~Client() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send the next `count` requests of the sequence and wait for all
  /// their replies. With a tracer, record one span per request.
  void drive(std::size_t count, Tracer* tr) {
    const std::uint64_t end = next_ + count;
    if (end > specs_.size()) throw std::logic_error("request sequence too short");
    std::uint64_t done = 0;
    const auto fill = [&](Conn& c) {
      while (c.outstanding < pipeline_ && next_ < end) {
        const RequestSpec& s = specs_[next_];
        c.wbuf += request_line(next_, pairs_[s.pair], s.size);
        recs_[next_].sent = Clock::now();
        ++next_;
        ++c.outstanding;
      }
    };
    for (Conn& c : conns_) fill(c);
    std::vector<pollfd> pfds(conns_.size());
    char chunk[16384];
    while (done < count) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i] = {conns_[i].fd,
                   short((conns_[i].outstanding > 0 ? POLLIN : 0) |
                         (!conns_[i].wbuf.empty() ? POLLOUT : 0)),
                   0};
      }
      const int n = ::poll(pfds.data(), nfds_t(pfds.size()), 10000);
      if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (n == 0) throw std::runtime_error("no reply within 10 s");
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if ((pfds[i].revents & POLLOUT) != 0 && !c.wbuf.empty()) {
          const ssize_t w = ::send(c.fd, c.wbuf.data(), c.wbuf.size(), 0);
          if (w > 0) c.wbuf.erase(0, std::size_t(w));
        }
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t r = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
          throw std::runtime_error("server closed a connection");
        }
        if (r > 0) c.rbuf.append(chunk, std::size_t(r));
        std::size_t pos;
        while ((pos = c.rbuf.find('\n')) != std::string::npos) {
          const Clock::time_point now = Clock::now();
          serve::WireReply wire;
          const std::string err =
              serve::parse_reply(std::string_view(c.rbuf).substr(0, pos), &wire);
          c.rbuf.erase(0, pos + 1);
          if (!err.empty() || wire.id < 0 ||
              std::uint64_t(wire.id) >= next_ || recs_[wire.id].done) {
            throw std::runtime_error("unexpected reply from the server");
          }
          Rec& rec = recs_[wire.id];
          rec.recv = now;
          rec.micros = wire.micros;
          rec.cores = wire.cores;
          rec.ok = wire.ok;
          rec.done = true;
          if (tr != nullptr) tr->record("client.request", wire.id, rec.sent, now);
          --c.outstanding;
          ++done;
        }
        fill(c);
      }
    }
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return next_; }

 private:
  struct Conn {
    int fd = -1;
    std::size_t outstanding = 0;
    std::string rbuf, wbuf;
  };
  std::size_t pipeline_;
  const std::vector<Pair>& pairs_;
  const std::vector<RequestSpec>& specs_;
  std::vector<Rec>& recs_;
  std::vector<Conn> conns_;
  std::uint64_t next_ = 0;
};

/// The server on its own thread, stopped and joined on destruction.
class RunningServer {
 public:
  RunningServer(serve::ShardedService& svc, const serve::ServeOptions& so)
      : server_(svc, so) {
    port_ = server_.start();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server failed: %s\n", e.what());
      }
    });
  }
  ~RunningServer() {
    server_.request_stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  serve::Server server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

struct ServeRound {
  double wall = 0;
  double cpu = 0;
  std::uint64_t first = 0, count = 0;  ///< request id range
};

double ns_of(const std::vector<double>& us) { return 1e3 * median(us); }

}  // namespace

std::vector<RequestSpec> request_sequence(bool hot, std::uint64_t seed,
                                          std::size_t n) {
  const std::vector<Pair> pairs = registry_pairs();
  std::vector<RequestSpec> space;
  if (hot) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      space.push_back({std::uint32_t(i), kHotSize});
    }
  } else {
    // Keep the first size of every distinct lowered program, so no two
    // requests of one pass over the space share a feature-cache entry.
    std::vector<RequestSpec> candidates;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::uint32_t size = kColdMin; size <= kColdMax; size += kColdStep) {
        candidates.push_back({std::uint32_t(i), size});
      }
    }
    // kernels::all_kernels() fills its table on first use without a lock;
    // fill it here, before the pool's threads look kernels up.
    (void)kernels::all_kernels();
    core::ThreadPool pool(kThreads);
    const std::vector<std::uint64_t> hashes =
        pool.parallel_map<std::uint64_t>(candidates.size(), [&](std::size_t i) {
          const Pair& p = pairs[candidates[i].pair];
          return core::program_hash(
              core::lower_sample({p.kernel, p.dtype, candidates[i].size}));
        });
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (seen.insert(hashes[i]).second) space.push_back(candidates[i]);
    }
  }
  // A seeded order of the space, repeated: a request recurs only after
  // every other one, so serve-hot keeps every request cached and
  // serve-cold's caches have long evicted it.
  Rng rng(seed);
  for (std::size_t i = space.size() - 1; i > 0; --i) {
    std::swap(space[i], space[rng.below(i + 1)]);
  }
  std::vector<RequestSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(space[i % space.size()]);
  return out;
}

void run_serve(const Args& args, bool hot, Report& report) {
  const std::vector<Pair> pairs = registry_pairs();
  const std::size_t round_size = hot ? kHotRound : kColdRound;
  const std::size_t prime = hot ? kHotPrime : kColdPrime;
  // Enough requests for the longest run this host could sustain; the
  // client stops at round boundaries once the time is up.
  const std::size_t capacity =
      prime + round_size * std::size_t(args.seconds * (hot ? 10 : 8) + 8);
  const std::vector<RequestSpec> specs =
      request_sequence(hot, args.seed, capacity);
  std::vector<Rec> recs(specs.size());

  // Set-up, repeated three times (median reported): train the model,
  // start the server, connect, and prime the caches with untimed
  // requests. The last repetition's server is the one measured.
  std::vector<double> setups;
  std::optional<core::EnergyClassifier> clf;
  std::unique_ptr<serve::ShardedService> svc;
  std::unique_ptr<RunningServer> server;
  std::unique_ptr<Client> client;
  const serve::ServeOptions so = serve_options();
  for (int rep = 0; rep < 3; ++rep) {
    client.reset();
    server.reset();
    svc.reset();
    std::fill(recs.begin(), recs.end(), Rec{});
    const Clock::time_point t0 = Clock::now();
    clf.emplace(train_model(load_reference(args.data_dir)));
    svc = std::make_unique<serve::ShardedService>(
        *clf, serve::sharded_options(so.resolve()));
    server = std::make_unique<RunningServer>(*svc, so);
    client = std::make_unique<Client>(
        server->port(), hot ? kHotPipeline : kColdPipeline, pairs, specs, recs);
    client->drive(prime, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed phase: rounds of a fixed request count until the time is up;
  // a traced run spends the second half recording client spans.
  const serve::Metrics::Snapshot m0 = svc->metrics();
  Tracer tr;
  std::vector<ServeRound> rounds, traced_rounds;
  const auto run_rounds = [&](double seconds, Tracer* t,
                              std::vector<ServeRound>& out) {
    const Clock::time_point start = Clock::now();
    while (out.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
      if (client->sent() + round_size > specs.size()) break;
      ServeRound r;
      r.first = client->sent();
      r.count = round_size;
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      client->drive(round_size, t);
      r.wall = seconds_between(t0, Clock::now());
      r.cpu = process_cpu_seconds() - cpu0;
      out.push_back(r);
    }
  };
  run_rounds(args.trace ? args.seconds / 2 : args.seconds, nullptr, rounds);
  const serve::Metrics::Snapshot m1 = svc->metrics();
  if (args.trace) run_rounds(args.seconds / 2, &tr, traced_rounds);
  const double peak_rss = peak_rss_mib();  // before the checks allocate
  const std::uint64_t sent = client->sent();
  client.reset();
  server.reset();

  // Output check: every reply equals the offline prediction of the same
  // model for the same request.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> expected;
  for (std::uint64_t i = 0; i < sent; ++i) {
    expected.try_emplace({specs[i].pair, specs[i].size}, 0);
  }
  {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
    for (const auto& [k, v] : expected) keys.push_back(k);
    core::ThreadPool pool(kThreads);
    const std::vector<int> cores =
        pool.parallel_map<int>(keys.size(), [&](std::size_t i) {
          const Pair& p = pairs[keys[i].first];
          return clf->predict(
              core::lower_sample({p.kernel, p.dtype, keys[i].second}));
        });
    for (std::size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = cores[i];
  }
  std::uint64_t wrong = 0;
  for (std::uint64_t i = 0; i < sent; ++i) {
    if (!recs[i].ok) continue;  // counted as failed below
    const int want = expected[{specs[i].pair, specs[i].size}];
    if (recs[i].cores != want && ++wrong <= 3) {
      const Pair& p = pairs[specs[i].pair];
      report.fail("served " + std::to_string(recs[i].cores) + " cores for " +
                  p.kernel + "/" + kir::to_string(p.dtype) + "/" +
                  std::to_string(specs[i].size) + ", offline predict says " +
                  std::to_string(want));
    }
  }
  std::uint64_t timed = 0, timed_failed = 0;
  std::vector<double> lat, wire, service;
  for (const ServeRound& r : rounds) {
    timed += r.count;
    for (std::uint64_t i = r.first; i < r.first + r.count; ++i) {
      if (!recs[i].ok) {
        ++timed_failed;
        continue;
      }
      const double us = 1e6 * seconds_between(recs[i].sent, recs[i].recv);
      lat.push_back(us);
      wire.push_back(us - recs[i].micros);
      service.push_back(recs[i].micros);
    }
  }
  report.attempt(timed, timed_failed);

  // Path guard: hot requests hit the shard caches, cold ones miss.
  const std::uint64_t hits = m1.cache_hits - m0.cache_hits;
  const std::uint64_t lookups = hits + (m1.cache_misses - m0.cache_misses);
  const double hit_ratio = lookups > 0 ? double(hits) / double(lookups) : 0;
  if (hot && hit_ratio < 0.99) {
    report.fail("serve-hot cache hit ratio " + std::to_string(hit_ratio) +
                " over " + std::to_string(lookups) + " lookups (want ~1)");
  }
  if (!hot && hit_ratio > 0.10) {
    report.fail("serve-cold cache hit ratio " + std::to_string(hit_ratio) +
                " over " + std::to_string(lookups) + " lookups (want ~0)");
  }

  std::vector<double> walls, cpus;
  for (const ServeRound& r : rounds) {
    walls.push_back(r.wall);
    cpus.push_back(r.cpu);
  }
  const double wall = median(walls);
  if (!args.trace) {
    report.set("setup_s", median(setups));
    report.set("wall_s", wall);
    report.set("cpu_s", median(cpus));
    report.set("ops_per_s", double(round_size) / wall);
    report.set("p50_us", median(lat));
    return;
  }

  report.zero_layers();
  const double p50 = median(lat);
  report.set("serve.wire_us", median(wire));
  report.set("serve.service_us", median(service));
  // Coverage: wire + service time accounts for the client's latency.
  // Medians do not add exactly; the gap is reported as unattributed.
  const double gap = p50 - median(wire) - median(service);
  report.set("serve.unattributed_us", gap);
  if (std::abs(gap) > 0.1 * p50) {
    report.fail("serve: wire + service time leaves " + std::to_string(gap) +
                " us of the " + std::to_string(p50) + " us p50 unattributed");
  }
  report.set("tail.p99_us", percentile(lat, 0.99).value_or(0));
  report.set("tail.samples", double(lat.size()));
  const std::uint64_t batches = m1.batches - m0.batches;
  report.set("serve.batches", double(batches));
  report.set("serve.batch_mean",
             batches > 0 ? double(m1.requests - m0.requests) / double(batches)
                         : 0);
  report.set("serve.cache_hit_ratio", hit_ratio);
  report.set("serve.cache_lookups", double(lookups));
  report.set("serve.cache_evictions",
             double(m1.cache_evictions - m0.cache_evictions));
  report.set("serve.shed", double(m1.shed - m0.shed));
  std::vector<double> traced_walls;
  for (const ServeRound& r : traced_rounds) traced_walls.push_back(r.wall);
  report.set("trace_overhead_ratio", median(traced_walls) / wall);

  // Router hit ratio: the router's LRU (same class, same capacity)
  // replayed over the spec keys in send order.
  {
    serve::detail::LruCache<char> lru(so.resolve().router_cache);
    std::uint64_t rhits = 0;
    const std::uint64_t first = rounds.front().first;
    const std::uint64_t last = rounds.back().first + rounds.back().count;
    for (std::uint64_t i = 0; i < last; ++i) {
      const Pair& p = pairs[specs[i].pair];
      serve::Request req;
      req.kernel = p.kernel;
      req.dtype = p.dtype;
      req.size_bytes = specs[i].size;
      const std::uint64_t key = serve::spec_key(req);
      char unused = 0;
      const bool hit = lru.get(key, &unused);
      if (!hit) lru.put(key, 0);
      if (i >= first && hit) ++rhits;
    }
    report.set("serve.router_hit_ratio", double(rhits) / double(last - first));
    report.set("serve.router_lookups", double(last - first));
  }

  // Shadow replay of the first timed requests through the public
  // functions of the request path.
  serve::ShardedService shadow(*clf, serve::sharded_options(so.resolve()));
  std::map<std::uint32_t, std::vector<double>> hot_rows;
  if (hot) {
    for (std::uint32_t i = 0; i < pairs.size(); ++i) {
      serve::Request req{pairs[i].kernel, pairs[i].dtype, kHotSize, false, {}};
      (void)shadow.shard_for(req);
      hot_rows[i] = clf->feature_row(
          core::lower_sample({pairs[i].kernel, pairs[i].dtype, kHotSize}));
    }
  }
  const std::uint64_t first = rounds.front().first;
  const std::size_t replay = std::min<std::size_t>(kReplay, timed);
  std::vector<double> resolve_us;
  ml::Matrix batch;
  batch.cols = clf->columns().size();
  for (std::uint64_t i = first; i < first + replay; ++i) {
    const Tracer::Scope root(tr, "replay.request", i);
    const Pair& p = pairs[specs[i].pair];
    const std::string line = request_line(i, p, specs[i].size);
    serve::WireRequest wreq;
    {
      const Tracer::Scope s(tr, "serve.parse", i, root.sid());
      if (!serve::parse_request(line, &wreq).empty()) {
        throw std::runtime_error("replay: request does not parse");
      }
    }
    const Clock::time_point r0 = Clock::now();
    serve::Request req{wreq.kernel, p.dtype, wreq.bytes, false, {}};
    {
      const Tracer::Scope s(tr, "serve.route", i, root.sid());
      (void)shadow.shard_for(req);
    }
    std::vector<double> row;
    if (hot) {
      row = hot_rows[specs[i].pair];
    } else {
      const kir::Program prog = [&] {
        const Tracer::Scope s(tr, "dsl.lower", i, root.sid());
        return core::lower_sample({p.kernel, p.dtype, specs[i].size});
      }();
      const Tracer::Scope s(tr, "feat.featurize", i, root.sid());
      row = clf->feature_row(prog);
    }
    ml::Matrix one{1, row.size(), row};
    serve::Result res;
    {
      const Tracer::Scope s(tr, "ml.predict", i, root.sid());
      res.cores = clf->predict_rows(one).front();
    }
    resolve_us.push_back(1e6 * seconds_between(r0, Clock::now()));
    res.ok = true;
    res.micros = recs[i].micros;
    {
      const Tracer::Scope s(tr, "serve.format", i, root.sid());
      (void)serve::format_reply_v2(std::int64_t(i), res);
    }
    batch.data.insert(batch.data.end(), row.begin(), row.end());
    ++batch.rows;
  }
  report.set("serve.parse_ns", ns_of(tr.durations_us("serve.parse")));
  report.set("serve.format_ns", ns_of(tr.durations_us("serve.format")));
  report.set("serve.route_ns", ns_of(tr.durations_us("serve.route")));
  report.set("serve.queue_wait_us", median(service) - median(resolve_us));
  if (!hot) {
    report.set("dsl.lower_us", median(tr.durations_us("dsl.lower")));
    report.set("feat.featurize_us", median(tr.durations_us("feat.featurize")));
  }
  // Flat-engine batch predict over the replayed rows.
  std::vector<double> per_row;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<int> out = clf->predict_rows(batch);
    per_row.push_back(1e9 * seconds_between(t0, Clock::now()) /
                      double(out.size()));
  }
  report.set("ml.predict_ns_per_row", median(per_row));
  report.set("trace.spans", double(tr.size()));
  report.set("proc.peak_rss_mib", peak_rss);
  tr.write_chrome_json(trace_path(args));
}

}  // namespace perfbench
