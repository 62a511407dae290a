// The timed side: clftj_server as a subprocess, driven over its socket by
// closed-loop or open-loop client connections. A watcher thread polls the
// server; if it dies, every connection is shut down at once so no client
// blocks, and every unanswered request is counted as failed.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

// One client connection speaking the line protocol. Read() may be unblocked
// from another thread by Shutdown().
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Open(const std::string& path, std::string* error) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = std::strerror(errno);
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = std::strerror(errno);
      return false;
    }
    // A live server answers every request; a silent one for this long is
    // a failure, not a slow request.
    timeval tv{};
    tv.tv_sec = 90;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool Send(const std::string& line, std::string* error) {
    std::string wire = line + "\n";
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads one response (TUPLE* then OK/ERR) into *lines.
  bool Read(std::vector<std::string>* lines, std::string* error) {
    lines->clear();
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        lines->emplace_back(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (clftj::IsTerminalResponseLine(lines->back())) return true;
        continue;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = n == 0 ? "server closed the connection"
                        : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void Shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

// Everything that must stop when the server dies.
struct Abort {
  std::atomic<bool> tripped{false};
  std::mutex mu;
  std::vector<Connection*> connections;

  void Register(Connection* c) {
    std::lock_guard<std::mutex> lock(mu);
    connections.push_back(c);
    if (tripped.load()) c->Shutdown();
  }
  void Unregister(Connection* c) {
    std::lock_guard<std::mutex> lock(mu);
    connections.erase(std::find(connections.begin(), connections.end(), c));
  }
  void Trip() {
    std::lock_guard<std::mutex> lock(mu);
    tripped.store(true);
    for (Connection* c : connections) c->Shutdown();
  }
};

// Sleeps until `t`, waking early (in at most 10 ms) once `abort` trips.
void SleepUntil(double t, const Abort* abort) {
  for (double dt = t - Now(); dt > 0 && !abort->tripped.load();
       dt = t - Now()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(dt, 0.01)));
  }
}

// A connection registered with the abort set for its lifetime.
class Client {
 public:
  Client(Abort* abort) : abort_(abort) {}
  ~Client() {
    if (registered_) abort_->Unregister(&conn_);
  }
  bool Open(const std::string& socket, std::string* error) {
    if (!conn_.Open(socket, error)) return false;
    abort_->Register(&conn_);
    registered_ = true;
    return true;
  }
  Connection& conn() { return conn_; }

 private:
  Abort* abort_;
  Connection conn_;
  bool registered_ = false;
};

// Sends one request and reads its response into *s.
void Exchange(Connection& conn, const BenchRequest& request, Sample* s) {
  s->request = &request;
  s->send = Now();
  std::string error;
  if (!conn.Send(request.line, &error)) {
    s->transport_error = error;
    return;
  }
  std::vector<std::string> lines;
  if (!conn.Read(&lines, &error)) {
    s->transport_error = error;
    return;
  }
  s->recv = Now();
  if (!clftj::ParseResponse(lines, &s->response, &error)) {
    s->transport_error = "malformed response: " + error;
    return;
  }
  s->parsed = Now();
  s->answered = true;
  for (const clftj::Tuple& t : s->response.tuples) s->digest += TupleDigest(t);
  s->response.tuples.clear();
  s->response.tuples.shrink_to_fit();
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Spawn(const LiveOptions& options, const Inputs& inputs,
             const std::string& socket, std::string* error) {
    socket_ = socket;
    ::unlink(socket.c_str());
    std::vector<std::string> args = {options.bin_dir + "/clftj_server",
                                     "--socket", socket, "--workers",
                                     std::to_string(options.nproc)};
    for (const auto& [name, path] : inputs.relations) {
      args.push_back("--relation");
      args.push_back(name + "=" + path);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = options.work_dir + "/server.log";
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) {
      *error = "cannot open " + log;
      return false;
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(log_fd);
      *error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid_ == 0) {
      // The server must not outlive the harness, whatever kills it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    reaped_ = false;
    return true;
  }

  // Waits until the socket accepts connections (relations loaded).
  bool WaitReady(double timeout, std::string* error) {
    const double deadline = Now() + timeout;
    while (Now() < deadline) {
      if (Exited()) {
        *error = "clftj_server exited during start-up (see server.log)";
        return false;
      }
      Connection probe;
      std::string ignored;
      if (probe.Open(socket_, &ignored)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *error = "clftj_server did not start listening in time";
    return false;
  }

  // True once the process has ended (reaps it).
  bool Exited() {
    if (reaped_) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) reaped_ = true;
    return reaped_;
  }

  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        std::istringstream fields(line.substr(6));
        double kb = 0;
        fields >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  // SIGTERM (the server drains and exits), escalating to SIGKILL.
  void Stop() {
    if (pid_ <= 0 || reaped_) return;
    ::kill(pid_, SIGTERM);
    const double deadline = Now() + 20;
    while (!Exited() && Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      reaped_ = true;
    }
    ::unlink(socket_.c_str());
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = true;
  std::string socket_;
};

// Polls the server every few milliseconds; trips `abort` if it dies.
class Watcher {
 public:
  Watcher(ServerProcess* server, Abort* abort, std::atomic<bool>* died)
      : thread_([this, server, abort, died] {
          while (!stop_.load()) {
            if (server->Exited()) {
              died->store(true);
              abort->Trip();
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;
  ~Watcher() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Sends `requests` over `connections` parallel connections (request i on
// connection i mod n), each connection one request at a time.
void RunSpread(const std::string& socket, const std::vector<BenchRequest>& requests,
               int connections, Sample::Phase phase, Abort* abort,
               std::vector<Sample>* out) {
  const int n = std::max(1, std::min<int>(connections,
                                          static_cast<int>(requests.size())));
  std::vector<std::vector<Sample>> per(n);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Client client(abort);
      std::string error;
      const bool open = client.Open(socket, &error);
      for (std::size_t i = c; i < requests.size(); i += n) {
        Sample s;
        s.phase = phase;
        s.connection = c;
        s.request = &requests[i];
        if (!open || abort->tripped.load()) {
          s.transport_error = open ? "aborted: server died" : error;
        } else {
          s.ready = Now();
          Exchange(client.conn(), requests[i], &s);
        }
        per[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per) {
    for (Sample& s : v) out->push_back(std::move(s));
  }
}

void RunClosedLoop(const std::string& socket, const Inputs& inputs,
                   double seconds, double t0, Abort* abort,
                   std::vector<Sample>* out) {
  const int n = static_cast<int>(inputs.streams.size());
  std::vector<std::vector<Sample>> per(n);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Client client(abort);
      std::string error;
      if (!client.Open(socket, &error)) {
        Sample s;
        s.connection = c;
        s.request = &inputs.streams[c].front();
        s.transport_error = error;
        per[c].push_back(std::move(s));
        return;
      }
      const std::vector<BenchRequest>& stream = inputs.streams[c];
      double ready = t0;
      int completed = 0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (abort->tripped.load()) break;
        if (Now() - t0 >= seconds && completed >= inputs.min_requests) break;
        Sample s;
        s.connection = c;
        s.ready = ready;
        Exchange(client.conn(), stream[i], &s);
        ready = s.answered ? s.parsed : Now();
        ++completed;
        per[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per) {
    for (Sample& s : v) out->push_back(std::move(s));
  }
}

// One open-loop sender: a persistent connection and the thread that uses
// it. The dispatcher hands a lane a request only while the lane is idle.
class Lane {
 public:
  Lane(const std::string& socket, Abort* abort) : client_(abort) {
    open_ = client_.Open(socket, &error_);
    thread_ = std::thread([this] { Loop(); });
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  bool idle() const { return !busy_.load(); }

  void Assign(Sample* s) {
    busy_.store(true);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = s;
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    for (;;) {
      Sample* s = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return job_ != nullptr || stop_; });
        if (job_ == nullptr) return;
        s = job_;
        job_ = nullptr;
      }
      if (open_) {
        Exchange(client_.conn(), *s->request, s);
      } else {
        s->send = Now();
        s->transport_error = error_;
      }
      busy_.store(false);
    }
  }

  Client client_;
  bool open_ = false;
  std::string error_;
  std::mutex mu_;
  std::condition_variable cv_;
  Sample* job_ = nullptr;
  bool stop_ = false;
  std::atomic<bool> busy_{false};
  std::thread thread_;  // last: runs Loop over the members above
};

// Open loop: readers are independent users. Each reader stream sends every
// request at its due time on an idle connection of its own, opening another
// when all are busy, so a slow answer never delays a later arrival; the
// writer sends each DELTA at its due time on one connection and waits for
// its answer.
void RunOpenLoop(const std::string& socket, const Inputs& inputs, double t0,
                 Abort* abort, std::vector<Sample>* out) {
  const int readers = static_cast<int>(inputs.streams.size());
  std::vector<std::vector<Sample>> per(readers + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<BenchRequest>& stream = inputs.streams[c];
      std::vector<Sample>& samples = per[c];
      samples.resize(stream.size());
      std::vector<std::unique_ptr<Lane>> lanes;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        Sample& s = samples[i];
        s.connection = c;
        s.request = &stream[i];
        s.due = t0 + stream[i].due;
        Lane* lane = nullptr;
        for (const auto& l : lanes) {
          if (l->idle()) {
            lane = l.get();
            break;
          }
        }
        if (lane == nullptr) {
          lanes.push_back(std::make_unique<Lane>(socket, abort));
          lane = lanes.back().get();
        }
        SleepUntil(s.due, abort);
        if (abort->tripped.load()) {
          s.transport_error = "not sent: server died";
          continue;
        }
        lane->Assign(&s);
      }
      lanes.clear();  // each lane finishes its request, then joins
    });
  }
  threads.emplace_back([&] {
    std::vector<Sample>& samples = per[readers];
    Client client(abort);
    std::string error;
    const bool open = client.Open(socket, &error);
    for (const BenchRequest& w : inputs.writes) {
      Sample s;
      s.connection = readers;
      s.request = &w;
      s.due = t0 + w.due;
      SleepUntil(s.due, abort);
      if (!open || abort->tripped.load()) {
        s.transport_error = open ? "not sent: server died" : error;
      } else {
        Exchange(client.conn(), w, &s);
      }
      samples.push_back(std::move(s));
    }
  });
  for (std::thread& t : threads) t.join();
  for (auto& v : per) {
    for (Sample& s : v) out->push_back(std::move(s));
  }
}

}  // namespace

bool RunLive(const Inputs& inputs, const LiveOptions& options,
             LiveResult* result) {
  *result = LiveResult();
  // Relative to the working directory: AF_UNIX paths are short, checkout
  // paths need not be.
  const std::string socket = options.work_dir + "/s.sock";
  // Several set-ups per run: setup_s is their median.
  const int setups = 3;
  for (int k = 0; k < setups; ++k) {
    ServerProcess server;
    Abort abort;
    std::atomic<bool> died{false};
    const double t_spawn = Now();
    if (!server.Spawn(options, inputs, socket, &result->error)) return false;
    if (!server.WaitReady(60, &result->error)) return false;
    const bool last = k + 1 == setups;
    {
      Watcher watcher(&server, &abort, &died);
      std::vector<Sample> warm;
      RunSpread(socket, inputs.warmup, options.nproc, Sample::Phase::kSetup,
                &abort, &warm);
      for (Sample& s : warm) s.server = k;
      result->setup_seconds.push_back(Now() - t_spawn);
      for (Sample& s : warm) result->samples.push_back(std::move(s));
      result->last_server = k;
      if (last && !died) {
        result->timed_start = Now();
        if (inputs.open_loop) {
          RunOpenLoop(socket, inputs, result->timed_start, &abort,
                      &result->samples);
        } else {
          RunClosedLoop(socket, inputs, options.seconds, result->timed_start,
                        &abort, &result->samples);
        }
        for (const Sample& s : result->samples) {
          if (s.phase == Sample::Phase::kTimed && s.answered) {
            result->timed_end = std::max(result->timed_end, s.recv);
          }
        }
        if (options.probe_delta && !died) {
          RunSpread(socket, inputs.probe, 1, Sample::Phase::kProbe, &abort,
                    &result->samples);
        }
        // Quiescent pass: with every write applied and nothing in flight,
        // each read shape must match the final version exactly.
        if (inputs.open_loop && !died) {
          RunSpread(socket, inputs.warmup, 1, Sample::Phase::kQuiescent,
                    &abort, &result->samples);
        }
      }
    }
    for (Sample& s : result->samples) {
      if (s.phase != Sample::Phase::kSetup) s.server = k;
    }
    if (died) {
      result->error = "clftj_server died (see server.log)";
      return false;
    }
    if (last) result->peak_rss_mb = server.PeakRssMb();
    server.Stop();
  }
  return true;
}

}  // namespace perfbench
