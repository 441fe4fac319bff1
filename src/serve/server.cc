#include "serve/server.hh"

#include <condition_variable>
#include <cstdio>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/stats_io.hh"
#include "runner/spec.hh"
#include "serve/cache_key.hh"
#include "serve/clock.hh"
#include "serve/protocol.hh"

namespace siwi::serve {

namespace {

/** Receive/send timeouts on accepted connections: long enough to
 *  never trip mid-message, short enough that idle connection
 *  threads notice a server stop promptly. */
constexpr unsigned kRecvTimeoutMs = 500;
constexpr unsigned kSendTimeoutMs = 10'000;

void
setSocketTimeout(int fd, int which, unsigned ms)
{
    timeval tv = {};
    tv.tv_sec = long(ms / 1000);
    tv.tv_usec = long(ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

} // namespace

Json
ServerStatus::toJson() const
{
    Json j = Json::object();
    j.set("type", Json("status"));
    j.set("protocol", Json(protocol_version));
    j.set("schema_version", Json(core::stats_schema_version));
    j.set("uptime_ms", Json(uptime_ms));
    j.set("submissions", Json(submissions));
    j.set("cells_submitted", Json(cells_submitted));
    j.set("cells_hit", Json(cells_hit));
    j.set("cells_joined", Json(cells_joined));
    j.set("cells_computed", Json(cells_computed));
    j.set("inflight", Json(inflight));
    j.set("compute_ms_total", Json(compute_ms_total));
    j.set("compute_ms_max", Json(compute_ms_max));
    Json jc = Json::object();
    jc.set("hits", Json(cache.hits));
    jc.set("misses", Json(cache.misses));
    jc.set("corrupt", Json(cache.corrupt));
    jc.set("stores", Json(cache.stores));
    jc.set("evictions", Json(cache.evictions));
    jc.set("entries", Json(cache_entries));
    j.set("cache", std::move(jc));
    return j;
}

/** One client connection: the fd plus a write lock so worker
 *  threads can stream cells while the connection thread owns the
 *  read side. A failed send marks the connection dead; the
 *  computation it was waiting on still completes and is cached. */
struct Server::Connection
{
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> alive{true};

    explicit Connection(int f) : fd(f) {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool send(const Json &msg)
    {
        if (!alive.load())
            return false;
        std::lock_guard<std::mutex> lock(write_mu);
        std::string err;
        if (!sendMessage(fd, msg, &err)) {
            alive.store(false);
            return false;
        }
        return true;
    }
};

/** One submit request in flight: the expanded grid, the waiters'
 *  bookkeeping, and the stream back to the client. */
struct Server::Submission
{
    std::shared_ptr<Connection> conn;
    std::vector<runner::SweepSpec> sweeps;
    std::vector<runner::CellSpec> cells;

    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    u64 hits = 0;
    u64 misses = 0;
    u64 joined = 0;
    u64 verify_failures = 0;
    u64 timeouts = 0;

    void deliver(size_t index, const runner::CellResult &c,
                 bool cached, u64 compute_ms)
    {
        Json msg = Json::object();
        msg.set("type", Json("cell"));
        msg.set("index", Json(u64(index)));
        msg.set("cached", Json(cached));
        msg.set("compute_ms", Json(compute_ms));
        msg.set("cell", runner::cellToJson(c));
        conn->send(msg);
        {
            std::lock_guard<std::mutex> lock(mu);
            verify_failures += !c.verified;
            timeouts += c.timed_out;
            --remaining;
        }
        cv.notify_all();
    }
};

Server::Server() = default;

Server::~Server()
{
    stop();
    // run() owns the teardown; a server that was started but
    // never run still holds the listening fd.
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

bool
Server::start(const ServerOptions &opts, std::string *err)
{
    opts_ = opts;
    if (opts_.cache_dir.empty()) {
        if (err)
            *err = "siwi-serve: a cache directory is required";
        return false;
    }
    if (!cache_.open(opts_.cache_dir, opts_.cache_max_entries,
                     err))
        return false;
    listen_fd_ = listenTcp(opts_.host, opts_.port, err);
    if (listen_fd_ < 0)
        return false;
    port_ = boundPort(listen_fd_);
    pool_ = std::make_unique<runner::CellExecutor>(opts_.jobs);
    started_ms_ = monoMillis();
    stop_.store(false);
    return true;
}

void
Server::run()
{
    while (!stop_.load()) {
        pollfd pfd = {};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        int rc = ::poll(&pfd, 1, 200);
        if (rc <= 0)
            continue;
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        setSocketTimeout(fd, SO_RCVTIMEO, kRecvTimeoutMs);
        setSocketTimeout(fd, SO_SNDTIMEO, kSendTimeoutMs);
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard<std::mutex> lock(mu_);
        conn_threads_.emplace_back(
            [this, conn] { handleConnection(conn); });
    }
    // Teardown order matters: connection threads are the only
    // job submitters, so join them first (their submissions drain
    // on the still-live pool), then drop the pool, then the fd.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mu_);
        threads.swap(conn_threads_);
    }
    for (std::thread &t : threads)
        t.join();
    pool_.reset();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
Server::stop()
{
    stop_.store(true);
}

ServerStatus
Server::status() const
{
    ServerStatus s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s = stats_;
    }
    s.uptime_ms = monoMillis() - started_ms_;
    s.cache = cache_.counters();
    s.cache_entries = cache_.entries();
    return s;
}

void
Server::handleConnection(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd);
    std::string line, err;
    while (!stop_.load() && conn->alive.load()) {
        LineReader::Status st = reader.readLine(&line, &err);
        if (st == LineReader::Status::Timeout)
            continue; // idle; re-check the stop flag
        if (st != LineReader::Status::Line)
            return;
        std::string perr;
        Json req = Json::parse(line, &perr);
        if (!perr.empty() || !req.isObject()) {
            // A framing error leaves the stream unparseable;
            // answer and drop the connection.
            conn->send(errorMessage(
                "bad request: " +
                (perr.empty() ? "expected a JSON object" : perr)));
            return;
        }
        if (!handleRequest(conn, req))
            return;
    }
}

bool
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const Json &req)
{
    const std::string type = req.getString("type");
    if (type == "ping") {
        Json j = Json::object();
        j.set("type", Json("pong"));
        j.set("protocol", Json(protocol_version));
        j.set("schema_version",
              Json(core::stats_schema_version));
        j.set("cache_key_version", Json(cache_key_version));
        return conn->send(j);
    }
    if (type == "status")
        return conn->send(status().toJson());
    if (type == "fsck") {
        FsckReport rep = cache_.fsck(req.getBool("repair"));
        Json j = Json::object();
        j.set("type", Json("fsck_report"));
        j.set("scanned", Json(u64(rep.scanned)));
        j.set("valid", Json(u64(rep.valid)));
        j.set("corrupt", Json(u64(rep.corrupt)));
        j.set("removed", Json(u64(rep.removed)));
        j.set("index_rebuilt", Json(rep.index_rebuilt));
        Json probs = Json::array();
        for (const std::string &p : rep.problems)
            probs.push(Json(p));
        j.set("problems", std::move(probs));
        return conn->send(j);
    }
    if (type == "shutdown") {
        if (!opts_.allow_remote_shutdown) {
            conn->send(errorMessage(
                "remote shutdown is disabled on this server"));
            return true;
        }
        Json j = Json::object();
        j.set("type", Json("ok"));
        conn->send(j);
        stop();
        return false;
    }
    if (type == "submit") {
        handleSubmit(conn, req);
        return conn->alive.load();
    }
    conn->send(errorMessage("unknown request type '" + type +
                            "'"));
    return true;
}

void
Server::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const Json &req)
{
    const u64 t0 = monoMillis();
    const Json *spec = req.find("spec");
    if (!spec || !spec->isObject()) {
        conn->send(errorMessage(
            "submit: missing 'spec' object (a spec-file "
            "document)"));
        return;
    }
    // The spec parser validates axes and resolved chip configs;
    // machine {"file": ...} references resolve against the
    // server's working directory, so submitted specs should be
    // self-contained (docs/SERVE.md).
    auto sub = std::make_shared<Submission>();
    sub->conn = conn;
    runner::MachineRegistry registry;
    std::string label, err;
    if (!runner::sweepsFromSpecJson(*spec, ".", &registry,
                                    &sub->sweeps, &label, &err)) {
        conn->send(errorMessage(err));
        return;
    }
    // Identical machine columns never run (or stream) twice —
    // the same normalization runSweeps applies.
    for (runner::SweepSpec &s : sub->sweeps)
        s.dedupeMachines();
    std::erase_if(sub->sweeps, [](const runner::SweepSpec &s) {
        return s.cellCount() == 0;
    });
    sub->cells = runner::expandCells(sub->sweeps);
    if (sub->cells.empty()) {
        conn->send(errorMessage("submit: spec expands to no "
                                "cells"));
        return;
    }

    Json accepted = Json::object();
    accepted.set("type", Json("accepted"));
    accepted.set("suite", Json(label));
    accepted.set("cells", Json(u64(sub->cells.size())));
    accepted.set("machines", runner::machinesToJson(
                                 runner::machineRecords(
                                     sub->sweeps)));
    if (!conn->send(accepted))
        return;

    sub->remaining = sub->cells.size();
    for (size_t i = 0; i < sub->cells.size(); ++i) {
        scheduleCell(sub, i,
                     cellCacheKey(sub->sweeps[sub->cells[i].sweep],
                                  sub->cells[i]));
    }
    {
        std::unique_lock<std::mutex> lock(sub->mu);
        sub->cv.wait(lock, [&] { return sub->remaining == 0; });
    }

    Json done = Json::object();
    done.set("type", Json("done"));
    done.set("cells", Json(u64(sub->cells.size())));
    done.set("hits", Json(sub->hits));
    done.set("misses", Json(sub->misses));
    done.set("joined", Json(sub->joined));
    done.set("verify_failures", Json(sub->verify_failures));
    done.set("timeouts", Json(sub->timeouts));
    done.set("server_ms", Json(monoMillis() - t0));
    conn->send(done);

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submissions;
    stats_.cells_submitted += sub->cells.size();
    stats_.cells_hit += sub->hits;
    stats_.cells_joined += sub->joined;
}

void
Server::scheduleCell(const std::shared_ptr<Submission> &sub,
                     size_t index, const std::string &key)
{
    // The one cache probe of this cell, made under the lock that
    // computeAndDeliver() retires in-flight cells with: a computed
    // cell is stored before it leaves inflight_, so every cell is
    // a hit, a join or cold, and this server never computes a
    // cell twice.
    runner::CellResult cell;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        hit = cache_.lookup(key, &cell);
        if (!hit) {
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                // The same cell is already computing for some
                // submission (possibly another client's): join.
                it->second.emplace_back(sub, index);
                ++sub->joined;
                return;
            }
            inflight_[key].emplace_back(sub, index);
            ++stats_.inflight;
        }
    }
    if (hit) {
        ++sub->hits;
        sub->deliver(index, cell, /*cached=*/true, 0);
        return;
    }
    ++sub->misses;
    pool_->submit([this, sub, index, key] {
        computeAndDeliver(sub, index, key);
    });
}

void
Server::computeAndDeliver(const std::shared_ptr<Submission> &sub,
                          size_t index, const std::string &key)
{
    const runner::CellSpec &cs = sub->cells[index];
    const u64 c0 = monoMillis();
    runner::CellResult cell =
        runner::runCell(sub->sweeps[cs.sweep], cs.machine, cs.wl,
                        cs.sms, cs.policy);
    const u64 ms = monoMillis() - c0;
    std::string serr;
    if (!cache_.store(key, cell, &serr))
        std::fprintf(stderr, "siwi-serve: %s\n", serr.c_str());
    std::vector<std::pair<std::shared_ptr<Submission>, size_t>>
        waiters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            waiters = std::move(it->second);
            inflight_.erase(it);
        }
        --stats_.inflight;
        ++stats_.cells_computed;
        stats_.compute_ms_total += ms;
        stats_.compute_ms_max = std::max(stats_.compute_ms_max, ms);
    }
    for (auto &[wsub, widx] : waiters)
        wsub->deliver(widx, cell, /*cached=*/false, ms);
}

} // namespace siwi::serve
