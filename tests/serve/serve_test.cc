/**
 * @file
 * End-to-end siwi-serve: an in-process server on an ephemeral
 * port, driven through the real TCP client. Covers the submit
 * stream (cold compute, warm all-hits, byte-identity with a local
 * run), resume across a server restart on the same cache,
 * poisoned-blob recomputation, cross-submission in-flight dedupe,
 * one cache probe per submitted cell, and the single-shot request
 * types.
 */

#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/experiment_runner.hh"
#include "runner/spec.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace siwi;
using namespace siwi::serve;

namespace fs = std::filesystem;

namespace {

/** A 2-cell experiment: small enough for a unit test, two
 *  machines so hit/miss accounting is non-trivial. */
const char *kSpecText = R"({
    "name": "serve_test",
    "sweeps": [{
        "name": "serve_test",
        "machines": ["SBI", "SBI+SWI"],
        "workloads": ["BFS"],
        "size": "tiny"
    }]
})";

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("siwi_serve_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        std::string err;
        spec_ = Json::parse(kSpecText, &err);
        ASSERT_TRUE(err.empty()) << err;
        startServer();
    }

    void TearDown() override
    {
        stopServer();
        fs::remove_all(dir_);
    }

    void startServer()
    {
        server_ = std::make_unique<Server>();
        ServerOptions opts;
        opts.cache_dir = dir_.string();
        opts.jobs = 2;
        std::string err;
        ASSERT_TRUE(server_->start(opts, &err)) << err;
        port_ = server_->port();
        thread_ = std::thread([this] { server_->run(); });
    }

    void stopServer()
    {
        if (!server_)
            return;
        server_->stop();
        thread_.join();
        server_.reset();
    }

    bool submit(SubmitOutcome *out, std::string *err)
    {
        return submitSpec("127.0.0.1", port_, spec_, out, err);
    }

    /** The same experiment executed locally, no cache. */
    runner::Results localRun()
    {
        runner::MachineRegistry reg;
        std::vector<runner::SweepSpec> sweeps;
        std::string label, err;
        EXPECT_TRUE(runner::sweepsFromSpecJson(
            spec_, ".", &reg, &sweeps, &label, &err))
            << err;
        runner::RunOptions opts;
        opts.jobs = 2;
        opts.suite_label = label;
        return runner::runSweeps(sweeps, opts);
    }

    fs::path dir_;
    Json spec_;
    std::unique_ptr<Server> server_;
    std::thread thread_;
    unsigned port_ = 0;
};

} // namespace

TEST_F(ServeTest, ColdComputesWarmHitsByteIdentical)
{
    SubmitOutcome cold;
    std::string err;
    ASSERT_TRUE(submit(&cold, &err)) << err;
    EXPECT_EQ(cold.cells, 2u);
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(cold.misses, 2u);
    EXPECT_EQ(cold.verify_failures, 0u);

    SubmitOutcome warm;
    ASSERT_TRUE(submit(&warm, &err)) << err;
    EXPECT_EQ(warm.hits, 2u);
    EXPECT_EQ(warm.misses, 0u);

    // Byte-identity, all three ways: cold vs warm, and both vs a
    // plain local run of the same spec.
    EXPECT_EQ(cold.document.dump(2), warm.document.dump(2));
    EXPECT_EQ(cold.results.toJsonText(),
              localRun().toJsonText());
    EXPECT_EQ(cold.document.dump(2) + "\n",
              cold.results.toJsonText());
}

TEST_F(ServeTest, ColdSubmissionCountsEachMissOnce)
{
    // Three cold cells: the server's cache counters must move by
    // exactly one probe per cell, not one per code path that
    // looks the cell up.
    std::string err;
    spec_ = Json::parse(R"({"name": "three", "sweeps": [{
        "name": "three", "machines": ["Baseline", "SBI", "SWI"],
        "workloads": ["BFS"], "size": "tiny"}]})",
                        &err);
    ASSERT_TRUE(err.empty()) << err;
    const ServerStatus before = server_->status();
    SubmitOutcome cold;
    ASSERT_TRUE(submit(&cold, &err)) << err;
    ASSERT_EQ(cold.cells, 3u);
    const ServerStatus after = server_->status();
    EXPECT_EQ(after.cache.misses - before.cache.misses, 3u);
    EXPECT_EQ(after.cache.hits - before.cache.hits, 0u);
    EXPECT_EQ(after.cells_computed - before.cells_computed, 3u);

    SubmitOutcome warm;
    ASSERT_TRUE(submit(&warm, &err)) << err;
    const ServerStatus again = server_->status();
    EXPECT_EQ(again.cache.misses, after.cache.misses);
    EXPECT_EQ(again.cache.hits - after.cache.hits, 3u);
}

TEST_F(ServeTest, ProgressStreamsEveryCell)
{
    size_t calls = 0, last_total = 0;
    SubmitOutcome o;
    std::string err;
    ASSERT_TRUE(submitSpec(
        "127.0.0.1", port_, spec_, &o, &err,
        [&](size_t done, size_t total,
            const runner::CellResult &c, bool) {
            ++calls;
            last_total = total;
            EXPECT_EQ(done, calls);
            EXPECT_TRUE(c.verified);
        }))
        << err;
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(last_total, 2u);
}

TEST_F(ServeTest, ResumeAfterRestartRecomputesNothing)
{
    SubmitOutcome cold;
    std::string err;
    ASSERT_TRUE(submit(&cold, &err)) << err;

    // Bounce the server: a new instance on the same cache
    // directory is the kill-and-resume scenario — finished cells
    // must come back as hits.
    stopServer();
    startServer();

    SubmitOutcome resumed;
    ASSERT_TRUE(submit(&resumed, &err)) << err;
    EXPECT_EQ(resumed.hits, 2u);
    EXPECT_EQ(resumed.misses, 0u);
    EXPECT_EQ(resumed.document.dump(2), cold.document.dump(2));
    EXPECT_EQ(server_->status().cells_computed, 0u);
}

TEST_F(ServeTest, PoisonedBlobIsRecomputedNotServed)
{
    SubmitOutcome cold;
    std::string err;
    ASSERT_TRUE(submit(&cold, &err)) << err;

    // Flip one payload bit in one stored blob.
    std::string victim;
    for (const auto &e : fs::recursive_directory_iterator(
             dir_ / "objects")) {
        if (e.is_regular_file()) {
            victim = e.path().string();
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    std::string data;
    {
        std::ifstream in(victim, std::ios::binary);
        data.assign(std::istreambuf_iterator<char>(in), {});
    }
    size_t pos = data.find("\"ipc\"");
    ASSERT_NE(pos, std::string::npos);
    data[pos + 7] = char(data[pos + 7] ^ 0x01);
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(data.data(), std::streamsize(data.size()));
    }

    SubmitOutcome again;
    ASSERT_TRUE(submit(&again, &err)) << err;
    EXPECT_EQ(again.hits, 1u);
    EXPECT_EQ(again.misses, 1u) << "poisoned blob not detected";
    EXPECT_EQ(again.document.dump(2), cold.document.dump(2))
        << "recomputed cell differs from the original";
}

TEST_F(ServeTest, ConcurrentIdenticalSubmissionsShareWork)
{
    SubmitOutcome a, b;
    std::string ea, eb;
    std::thread ta([&] { submitSpec("127.0.0.1", port_, spec_,
                                    &a, &ea); });
    std::thread tb([&] { submitSpec("127.0.0.1", port_, spec_,
                                    &b, &eb); });
    ta.join();
    tb.join();
    ASSERT_TRUE(ea.empty()) << ea;
    ASSERT_TRUE(eb.empty()) << eb;
    EXPECT_EQ(a.document.dump(2), b.document.dump(2));
    // Whatever the interleaving (in-flight join, cache hit, or
    // one side finishing first), each distinct cell is computed
    // at most once.
    EXPECT_LE(server_->status().cells_computed, 2u);
}

TEST_F(ServeTest, SingleShotRequestsAnswer)
{
    Json reply;
    std::string err;
    Json ping = Json::object();
    ping.set("type", Json("ping"));
    ASSERT_TRUE(request("127.0.0.1", port_, ping, &reply, &err))
        << err;
    EXPECT_EQ(reply.getString("type"), "pong");
    EXPECT_EQ(reply.getInt("protocol"), protocol_version);

    Json status = Json::object();
    status.set("type", Json("status"));
    ASSERT_TRUE(request("127.0.0.1", port_, status, &reply,
                        &err))
        << err;
    EXPECT_EQ(reply.getString("type"), "status");

    Json fsck = Json::object();
    fsck.set("type", Json("fsck"));
    ASSERT_TRUE(request("127.0.0.1", port_, fsck, &reply, &err))
        << err;
    EXPECT_EQ(reply.getString("type"), "fsck_report");
}

TEST_F(ServeTest, MalformedSubmissionsAreRejected)
{
    Json bad = Json::object();
    bad.set("type", Json("submit"));
    Json reply;
    std::string err;
    EXPECT_FALSE(request("127.0.0.1", port_, bad, &reply, &err));
    EXPECT_NE(err.find("spec"), std::string::npos) << err;

    std::string perr;
    Json broken = Json::parse(
        R"({"name":"x","sweeps":[{"name":"x",
            "machines":["NoSuchMachine"],
            "workloads":["BFS"]}]})",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    SubmitOutcome o;
    EXPECT_FALSE(submitSpec("127.0.0.1", port_, broken, &o,
                            &err));
    EXPECT_NE(err.find("NoSuchMachine"), std::string::npos)
        << err;

    Json nonsense = Json::object();
    nonsense.set("type", Json("frobnicate"));
    EXPECT_FALSE(request("127.0.0.1", port_, nonsense, &reply,
                         &err));
    EXPECT_NE(err.find("unknown request type"),
              std::string::npos)
        << err;
}
