#include <gtest/gtest.h>

#include "dproc/core/cluster.hpp"
#include "dproc/procfs/procfs.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc::procfs {
namespace {

class ProcFsTest : public ::testing::Test {
 protected:
  ProcFs fs;
};

TEST_F(ProcFsTest, RegisterAndReadFile) {
  ASSERT_TRUE(fs.register_file("/proc/loadavg", [] { return "0.42\n"; }).is_ok());
  auto content = fs.read("/proc/loadavg");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(content.value(), "0.42\n");
}

TEST_F(ProcFsTest, IntermediateDirectoriesCreated) {
  ASSERT_TRUE(
      fs.register_file("/proc/cluster/alan/cpu/loadavg", [] { return "1\n"; })
          .is_ok());
  EXPECT_TRUE(fs.is_directory("/proc/cluster/alan/cpu"));
  EXPECT_TRUE(fs.is_directory("/proc/cluster"));
}

TEST_F(ProcFsTest, ReadReflectsLiveState) {
  int value = 0;
  ASSERT_TRUE(fs.register_file("/proc/value", [&] {
                  return std::to_string(value);
                }).is_ok());
  value = 7;
  EXPECT_EQ(fs.read("/proc/value").value(), "7");
  value = 9;
  EXPECT_EQ(fs.read("/proc/value").value(), "9");
}

TEST_F(ProcFsTest, WriteInvokesHandler) {
  std::string written;
  ASSERT_TRUE(fs.register_file(
                    "/proc/cluster/alan/control", [] { return ""; },
                    [&](const std::string& data) {
                      written = data;
                      return Status::ok();
                    })
                  .is_ok());
  ASSERT_TRUE(fs.write("/proc/cluster/alan/control", "period 2").is_ok());
  EXPECT_EQ(written, "period 2");
}

TEST_F(ProcFsTest, WriteHandlerErrorsPropagate) {
  ASSERT_TRUE(fs.register_file(
                    "/proc/ctl", [] { return ""; },
                    [](const std::string&) {
                      return Status::invalid_argument("bad command");
                    })
                  .is_ok());
  const Status status = fs.write("/proc/ctl", "x");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcFsTest, WriteToReadOnlyFileDenied) {
  ASSERT_TRUE(fs.register_file("/proc/ro", [] { return "x"; }).is_ok());
  EXPECT_EQ(fs.write("/proc/ro", "y").code(), StatusCode::kPermissionDenied);
}

TEST_F(ProcFsTest, MissingPathsReported) {
  EXPECT_EQ(fs.read("/proc/nothing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.write("/proc/nothing", "x").code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs.exists("/proc/nothing"));
}

TEST_F(ProcFsTest, ReadingDirectoryIsError) {
  ASSERT_TRUE(fs.mkdir("/proc/cluster").is_ok());
  EXPECT_EQ(fs.read("/proc/cluster").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ProcFsTest, ListSortsAndMarksDirectories) {
  ASSERT_TRUE(fs.register_file("/proc/zeta", [] { return ""; }).is_ok());
  ASSERT_TRUE(fs.mkdir("/proc/alpha").is_ok());
  auto entries = fs.list("/proc");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries.value(), (std::vector<std::string>{"alpha/", "zeta"}));
}

TEST_F(ProcFsTest, ListFileIsError) {
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.list("/proc/x").is_ok());
}

TEST_F(ProcFsTest, RemoveSubtree) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/alan/cpu/loadavg",
                               [] { return ""; }).is_ok());
  ASSERT_TRUE(fs.remove("/proc/cluster/alan").is_ok());
  EXPECT_FALSE(fs.exists("/proc/cluster/alan/cpu/loadavg"));
  EXPECT_TRUE(fs.exists("/proc/cluster"));
  EXPECT_EQ(fs.remove("/proc/cluster/alan").code(), StatusCode::kNotFound);
}

TEST_F(ProcFsTest, RelativePathsRejected) {
  EXPECT_FALSE(fs.register_file("proc/x", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.read("relative").is_ok());
}

TEST_F(ProcFsTest, DotComponentsRejected) {
  EXPECT_FALSE(fs.register_file("/proc/../etc/passwd", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.read("/proc/./x").is_ok());
}

TEST_F(ProcFsTest, FileOverDirectoryRejected) {
  ASSERT_TRUE(fs.mkdir("/proc/cluster").is_ok());
  EXPECT_EQ(fs.register_file("/proc/cluster", [] { return ""; }).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ProcFsTest, ReRegisterReplacesHandlers) {
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return "a"; }).is_ok());
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return "b"; }).is_ok());
  EXPECT_EQ(fs.read("/proc/x").value(), "b");
}

TEST_F(ProcFsTest, TreeRendersHierarchy) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/alan/cpu/loadavg",
                               [] { return ""; }).is_ok());
  const std::string tree = fs.tree();
  EXPECT_NE(tree.find("cluster/"), std::string::npos);
  EXPECT_NE(tree.find("alan/"), std::string::npos);
  EXPECT_NE(tree.find("loadavg"), std::string::npos);
}

TEST_F(ProcFsTest, DuplicateSlashesTolerated) {
  ASSERT_TRUE(fs.register_file("//proc//x", [] { return "v"; }).is_ok());
  EXPECT_EQ(fs.read("/proc/x").value(), "v");
}

TEST_F(ProcFsTest, NullReadHandlerYieldsEmpty) {
  ASSERT_TRUE(fs.register_file("/proc/empty", {}).is_ok());
  EXPECT_EQ(fs.read("/proc/empty").value(), "");
}

// --- shared subtrees and bindings -----------------------------------------

class SharedSubtreeTest : public ProcFsTest {
 protected:
  SharedSubtreeTest() {
    EXPECT_TRUE(fs.register_shared_file("peer", "cpu/load",
                                        [](ProcFs::Context c) {
                                          return "load " + std::to_string(c);
                                        })
                    .is_ok());
    EXPECT_TRUE(fs.register_shared_file(
                      "peer", "control", [](ProcFs::Context) { return ""; },
                      [this](ProcFs::Context c, const std::string& data) {
                        written = std::to_string(c) + ":" + data;
                        return Status::ok();
                      })
                    .is_ok());
    EXPECT_TRUE(fs.bind("/proc/cluster/alan", "peer", 1).is_ok());
    EXPECT_TRUE(fs.bind("/proc/cluster/maui", "peer", 2).is_ok());
  }

  std::string written;
};

TEST_F(SharedSubtreeTest, BindingsResolveWithTheirContext) {
  EXPECT_EQ(fs.read("/proc/cluster/alan/cpu/load").value(), "load 1");
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/load").value(), "load 2");
  ASSERT_TRUE(fs.write("/proc/cluster/maui/control", "period 2").is_ok());
  EXPECT_EQ(written, "2:period 2");
  EXPECT_TRUE(fs.is_directory("/proc/cluster/alan"));
  EXPECT_TRUE(fs.is_directory("/proc/cluster/alan/cpu"));
  EXPECT_FALSE(fs.exists("/proc/cluster/alan/mem"));
  EXPECT_EQ(fs.list("/proc/cluster/alan").value(),
            (std::vector<std::string>{"control", "cpu/"}));
}

TEST_F(SharedSubtreeTest, TreeRendersABindingLikeACopy) {
  ProcFs copies;
  for (const char* name : {"alan", "maui"}) {
    const std::string base = std::string{"/proc/cluster/"} + name;
    ASSERT_TRUE(copies.register_file(base + "/cpu/load", {}).is_ok());
    ASSERT_TRUE(copies.register_file(base + "/control", {}).is_ok());
  }
  EXPECT_EQ(fs.tree(), copies.tree());
}

TEST_F(SharedSubtreeTest, FileAddedLaterReachesEveryBinding) {
  ASSERT_TRUE(fs.register_shared_file("peer", "/mem/free",
                                      [](ProcFs::Context c) {
                                        return "free " + std::to_string(c);
                                      })
                  .is_ok());
  EXPECT_EQ(fs.read("/proc/cluster/alan/mem/free").value(), "free 1");
  EXPECT_EQ(fs.read("/proc/cluster/maui/mem/free").value(), "free 2");
}

TEST_F(SharedSubtreeTest, RemovingOneBindingLeavesTheOthers) {
  ASSERT_TRUE(fs.remove("/proc/cluster/alan").is_ok());
  EXPECT_FALSE(fs.exists("/proc/cluster/alan"));
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/load").value(), "load 2");
  EXPECT_EQ(fs.list("/proc/cluster").value(),
            (std::vector<std::string>{"maui/"}));
}

TEST_F(SharedSubtreeTest, RebindingReplacesTheContext) {
  ASSERT_TRUE(fs.bind("/proc/cluster/alan", "peer", 7).is_ok());
  EXPECT_EQ(fs.read("/proc/cluster/alan/cpu/load").value(), "load 7");
}

TEST_F(SharedSubtreeTest, FilesAndPlainDirectoriesAreNotRebound) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/health", {}).is_ok());
  ASSERT_TRUE(fs.mkdir("/proc/cluster/rollup").is_ok());
  EXPECT_EQ(fs.bind("/proc/cluster/health", "peer", 3).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.bind("/proc/cluster/rollup", "peer", 3).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.bind("/proc/cluster", "peer", 3).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SharedSubtreeTest, NothingIsAddedOrRemovedBelowABinding) {
  EXPECT_FALSE(fs.register_file("/proc/cluster/alan/extra", {}).is_ok());
  EXPECT_FALSE(fs.mkdir("/proc/cluster/alan/dir").is_ok());
  EXPECT_FALSE(fs.bind("/proc/cluster/alan/cpu", "peer", 4).is_ok());
  EXPECT_EQ(fs.remove("/proc/cluster/alan/cpu").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/load").value(), "load 2");
  EXPECT_FALSE(fs.exists("/proc/cluster/maui/extra"));
}

}  // namespace
}  // namespace dproc::procfs

// --- alan's /proc in quickstart's Figure 1 cluster, pinned byte for byte ---

namespace dproc::core {
namespace {

void append_listing(procfs::ProcFs& fs, const std::string& path,
                    std::string& out) {
  out += "list " + path + "\n";
  auto entries = fs.list(path);
  if (!entries) {
    out += entries.status().to_string() + "\n";
    return;
  }
  for (const std::string& entry : entries.value()) out += "  " + entry + "\n";
}

void append_reads(procfs::ProcFs& fs, const std::string& dir,
                  std::string& out) {
  const auto entries = fs.list(dir);
  for (const std::string& entry : entries.value()) {
    const std::string path = dir + "/" + entry;
    if (entry.ends_with('/')) {
      append_reads(fs, path.substr(0, path.size() - 1), out);
      continue;
    }
    auto content = fs.read(path);
    out += "read " + path + "\n";
    out += content ? content.value() : content.status().to_string() + "\n";
  }
}

std::string figure1_transcript() {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 3;
  config.node_names = {"alan", "maui", "etna"};
  Cluster cluster{engine, config};
  cluster.start_dproc();
  workload::LinpackTask thread1{cluster.host(2)};
  workload::LinpackTask thread2{cluster.host(2)};
  engine.run_until(SimTime{} + seconds(10.0));

  procfs::ProcFs& alan = cluster.procfs(0);
  std::string out = "tree\n" + alan.tree();
  append_listing(alan, "/proc/cluster", out);
  append_listing(alan, "/proc/cluster/etna", out);
  append_listing(alan, "/proc/cluster/etna/cpu", out);
  append_listing(alan, "/proc/cluster/etna/status", out);
  append_listing(alan, "/proc/cluster/nowhere", out);
  append_reads(alan, "/proc/cluster/etna", out);
  for (const char* path : {"/proc/cluster/etna/cpu", "/proc/cluster/etna/nope",
                           "/proc/cluster/etna/cpu/loadavg/x", "cluster/etna",
                           "/proc/cluster/etna/../maui/status"}) {
    auto content = alan.read(path);
    out += "read " + std::string{path} + "\n" +
           (content ? "ok\n" : content.status().to_string() + "\n");
  }
  out += "exists etna/cpu " +
         std::to_string(alan.exists("/proc/cluster/etna/cpu")) + " dir " +
         std::to_string(alan.is_directory("/proc/cluster/etna/cpu")) + "\n";
  out += "exists etna/status " +
         std::to_string(alan.exists("/proc/cluster/etna/status")) + " dir " +
         std::to_string(alan.is_directory("/proc/cluster/etna/status")) + "\n";
  const std::pair<const char*, const char*> writes[] = {
      {"/proc/cluster/etna/control", "period 0.5\nthreshold loadavg above 1\n"},
      {"/proc/cluster/etna/control", "warp 9\n"},
      {"/proc/cluster/etna/status", "x\n"},
      {"/proc/cluster/etna/cpu", "x\n"},
      {"/proc/cluster/zeus/control", "period 1\n"},
  };
  for (const auto& [path, text] : writes) {
    out += "write " + std::string{path} + " -> " +
           alan.write(path, text).to_string() + "\n";
  }
  // The local metric files, and etna's files once its feed has gone quiet.
  append_reads(alan, "/proc/net", out);
  cluster.crash_node(2);
  engine.run_until(SimTime{} + seconds(16.3));
  append_reads(alan, "/proc/cluster/etna", out);
  return out;
}

// Captured from the per-peer-copy implementation the shared peer subtree
// replaced; any difference is a behaviour change, not test rot.
constexpr const char* kFigure1Golden = R"golden(tree
proc/
  cluster/
    etna/
      control
      cpu/
        loadavg
        utilization
      disk/
        reads
        sectors
        writes
      mem/
        free_pages
        freemem
      net/
        available_bps
        in_bps
        out_bps
        retransmissions
        rtt_us
        udp_lost
      pmc/
        cache_misses
      status
    maui/
      control
      cpu/
        loadavg
        utilization
      disk/
        reads
        sectors
        writes
      mem/
        free_pages
        freemem
      net/
        available_bps
        in_bps
        out_bps
        retransmissions
        rtt_us
        udp_lost
      pmc/
        cache_misses
      status
  cpu/
    loadavg
    utilization
  disk/
    reads
    sectors
    writes
  dproc/
    adapt
    flight
    interest
    status
    telemetry
    trace
  mem/
    free_pages
    freemem
  net/
    available_bps
    connections
    in_bps
    out_bps
    retransmissions
    rtt_us
    udp_lost
  pmc/
    cache_misses
list /proc/cluster
  etna/
  maui/
list /proc/cluster/etna
  control
  cpu/
  disk/
  mem/
  net/
  pmc/
  status
list /proc/cluster/etna/cpu
  loadavg
  utilization
list /proc/cluster/etna/status
INVALID_ARGUMENT: '/proc/cluster/etna/status' is not a directory
list /proc/cluster/nowhere
NOT_FOUND: '/proc/cluster/nowhere' does not exist
read /proc/cluster/etna/control
# write control commands for node etna: period/threshold/differential/fuel/filter/clear
read /proc/cluster/etna/cpu/loadavg
2
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/cpu/utilization
1
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/disk/reads
0
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/disk/sectors
0
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/disk/writes
0
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/mem/free_pages
131072
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/mem/freemem
536870912
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/available_bps
99984149.0147
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/in_bps
15850.9853497
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/out_bps
15850.9853497
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/retransmissions
0
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/rtt_us
212.672202492
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/net/udp_lost
0
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/pmc/cache_misses
693034
sampled_at_s 9
age_s 1
recv_age_s 0
read /proc/cluster/etna/status
state live
has_data 1
last_update_s 10
age_s 0
read /proc/cluster/etna/cpu
INVALID_ARGUMENT: '/proc/cluster/etna/cpu' is a directory
read /proc/cluster/etna/nope
NOT_FOUND: '/proc/cluster/etna/nope' does not exist
read /proc/cluster/etna/cpu/loadavg/x
NOT_FOUND: '/proc/cluster/etna/cpu/loadavg/x' does not exist
read cluster/etna
NOT_FOUND: 'cluster/etna' does not exist
read /proc/cluster/etna/../maui/status
NOT_FOUND: '/proc/cluster/etna/../maui/status' does not exist
exists etna/cpu 1 dir 1
exists etna/status 1 dir 0
write /proc/cluster/etna/control -> OK
write /proc/cluster/etna/control -> INVALID_ARGUMENT: unknown control command 'warp'
write /proc/cluster/etna/status -> PERMISSION_DENIED: '/proc/cluster/etna/status' is read-only
write /proc/cluster/etna/cpu -> INVALID_ARGUMENT: '/proc/cluster/etna/cpu' is a directory
write /proc/cluster/zeus/control -> NOT_FOUND: '/proc/cluster/zeus/control' does not exist
read /proc/net/available_bps
99984180.8595
read /proc/net/connections
flow  local  remote  srtt_us  retrans  in_flight  send_queue
1  0  1  179.881  0  487  0
2  0  2  187.71  0  487  0
3  0  1  0  0  0  0
5  0  2  0  0  0  0
read /proc/net/in_bps
15819.1404773
read /proc/net/out_bps
15819.1404773
read /proc/net/retransmissions
0
read /proc/net/rtt_us
183.795248308
read /proc/net/udp_lost
0
read /proc/cluster/etna/control
# write control commands for node etna: period/threshold/differential/fuel/filter/clear
read /proc/cluster/etna/cpu/loadavg
2
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/cpu/utilization
1
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/disk/reads
0
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/disk/sectors
0
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/disk/writes
0
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/mem/free_pages
131072
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/mem/freemem
536870912
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/available_bps
99984180.8595
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/in_bps
15819.1404773
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/out_bps
15819.1404773
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/retransmissions
0
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/rtt_us
211.16817718
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/net/udp_lost
0
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/pmc/cache_misses
779578
sampled_at_s 10
age_s 6.3
recv_age_s 5.3
state stale
read /proc/cluster/etna/status
state stale
has_data 1
last_update_s 11
age_s 5.3
)golden";

TEST(ProcFsFigure1, AlansViewIsByteIdentical) {
  EXPECT_EQ(figure1_transcript(), kFigure1Golden);
}

class PeerSubtreeTest : public ::testing::Test {
 protected:
  PeerSubtreeTest() {
    ClusterConfig config;
    config.node_count = 3;
    config.node_names = {"alan", "maui", "etna"};
    cluster = std::make_unique<Cluster>(engine, config);
    cluster->start_dproc();
    engine.run_until(SimTime{} + seconds(3.0));
  }

  procfs::ProcFs& alan() { return cluster->procfs(0); }

  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
};

TEST_F(PeerSubtreeTest, RenamedPeerLeavesItsOldPath) {
  const net::NodeId etna = cluster->nic(2).node();
  cluster->dmon(0)->add_peer(etna, "etna-b");
  EXPECT_FALSE(alan().exists("/proc/cluster/etna"));
  EXPECT_EQ(alan().list("/proc/cluster").value(),
            (std::vector<std::string>{"etna-b/", "maui/"}));
  auto loadavg = alan().read("/proc/cluster/etna-b/cpu/loadavg");
  ASSERT_TRUE(loadavg.is_ok());
  EXPECT_NE(loadavg.value().find("sampled_at_s"), std::string::npos);
  EXPECT_NE(alan().read("/proc/cluster/etna-b/control").value().find(
                "for node etna-b:"),
            std::string::npos);
  EXPECT_EQ(cluster->dmon(0)->procfs_conflicts(), 0u);
}

TEST_F(PeerSubtreeTest, ANameSharedByTwoPeersPassesBackOnRename) {
  // A second node declared under etna's name takes the directory over (as
  // re-registering its files used to); renaming it hands the name back.
  DMon& dmon = *cluster->dmon(0);
  dmon.add_peer(99, "etna");
  EXPECT_EQ(alan().read("/proc/cluster/etna/cpu/loadavg").value(), "no data\n");
  dmon.add_peer(99, "zeus");
  EXPECT_TRUE(alan().exists("/proc/cluster/zeus/status"));
  EXPECT_NE(alan().read("/proc/cluster/etna/cpu/loadavg").value().find(
                "sampled_at_s"),
            std::string::npos);
}

TEST_F(PeerSubtreeTest, ModuleRegisteredAfterThePeersReachesEveryPeer) {
  for (std::size_t i = 0; i < cluster->size(); ++i) {
    cluster->dmon(i)->register_module(std::make_unique<SyntheticMonitor>(
        "battery", 1,
        [i](std::size_t, SimTime) { return 80.0 + static_cast<double>(i); }));
  }
  engine.run_until(engine.now() + seconds(2.0));
  for (const auto& [peer, value] :
       {std::pair{"maui", "81\n"}, std::pair{"etna", "82\n"}}) {
    const std::string path =
        std::string{"/proc/cluster/"} + peer + "/battery/battery0";
    auto reading = alan().read(path);
    ASSERT_TRUE(reading.is_ok()) << path;
    EXPECT_TRUE(reading.value().starts_with(value)) << reading.value();
  }
}

TEST_F(PeerSubtreeTest, RemovingOnePeerLeavesTheOthers) {
  const std::string etna_before = alan().read("/proc/cluster/etna/status").value();
  ASSERT_TRUE(alan().remove("/proc/cluster/maui").is_ok());
  EXPECT_FALSE(alan().exists("/proc/cluster/maui"));
  EXPECT_EQ(alan().read("/proc/cluster/etna/status").value(), etna_before);
  EXPECT_EQ(alan().list("/proc/cluster/etna").value().size(), 7u);
  EXPECT_TRUE(cluster->procfs(1).exists("/proc/cluster/etna/cpu/loadavg"));
}

}  // namespace
}  // namespace dproc::core
