// Tests for the Hadoop baseline simulation: the DES core, the HDFS model,
// the JobTracker control-plane costs (calibrated to the paper's ~30 s
// floor), the Java-flavoured client API, and the startup-script models.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "fs/file_io.h"
#include "hadoopsim/cluster.h"
#include "hadoopsim/des.h"
#include "hadoopsim/hdfs.h"
#include "hadoopsim/javaapi.h"
#include "hadoopsim/scripts.h"

namespace mrs {
namespace hadoopsim {
namespace {

// ---- DES core -------------------------------------------------------------

TEST(Des, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(3.0, [&] { order.push_back(3); });
  sim.At(1.0, [&] { order.push_back(1); });
  sim.At(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Des, TiesFireInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Des, EventsMayScheduleMoreEvents) {
  Simulation sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) sim.After(0.5, step);
  };
  sim.After(0.5, step);
  sim.Run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Des, MaxTimeGuardStops) {
  Simulation sim;
  std::function<void()> forever = [&] { sim.After(1.0, forever); };
  sim.After(1.0, forever);
  sim.Run(/*max_time=*/10.0);
  EXPECT_LE(sim.now(), 10.0);
}

// ---- HDFS model -------------------------------------------------------------

TEST(Hdfs, BlocksPlacedWithReplication) {
  HdfsModel hdfs(10, /*replication=*/3, /*block_size=*/64 << 20);
  ASSERT_TRUE(hdfs.CreateFile("/data/a", 200ll << 20).ok());
  auto file = hdfs.Stat("/data/a");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->blocks.size(), 4u);  // ceil(200/64)
  for (const BlockInfo& b : (*file)->blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
    std::set<int> distinct(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(distinct.size(), 3u);  // replicas on distinct nodes
  }
}

TEST(Hdfs, DuplicateCreateRejected) {
  HdfsModel hdfs(3);
  ASSERT_TRUE(hdfs.CreateFile("/x", 1).ok());
  EXPECT_EQ(hdfs.CreateFile("/x", 1).code(), StatusCode::kAlreadyExists);
}

TEST(Hdfs, ListDirFindsPrefix) {
  HdfsModel hdfs(3);
  ASSERT_TRUE(hdfs.CreateFile("/in/a", 1).ok());
  ASSERT_TRUE(hdfs.CreateFile("/in/b", 1).ok());
  ASSERT_TRUE(hdfs.CreateFile("/out/c", 1).ok());
  EXPECT_EQ(hdfs.ListDir("/in").size(), 2u);
  EXPECT_EQ(hdfs.ListDir("/out").size(), 1u);
  EXPECT_TRUE(hdfs.ListDir("/none").empty());
}

TEST(Hdfs, SurvivesMinorityDatanodeLoss) {
  HdfsModel hdfs(6, 3);
  ASSERT_TRUE(hdfs.CreateFile("/f", 300ll << 20).ok());
  hdfs.KillDatanode(0);
  hdfs.KillDatanode(1);
  EXPECT_TRUE(hdfs.AllDataAvailable());  // 3 replicas, 2 lost max
}

TEST(Hdfs, SchedulerKillingAllNodesLosesData) {
  // The paper's warning: "the distributed filesystem may lose all of its
  // data nodes and all associated data within a few seconds" when the
  // batch scheduler reaps a job's processes.
  HdfsModel hdfs(4, 3);
  ASSERT_TRUE(hdfs.CreateFile("/results", 100ll << 20).ok());
  for (int node = 0; node < 4; ++node) hdfs.KillDatanode(node);
  EXPECT_FALSE(hdfs.AllDataAvailable());
  EXPECT_EQ(hdfs.LostFiles().size(), 1u);
  EXPECT_EQ(hdfs.num_live_datanodes(), 0);
}

TEST(Hdfs, MetadataRpcsCounted) {
  HdfsModel hdfs(3);
  int64_t before = hdfs.metadata_rpcs();
  ASSERT_TRUE(hdfs.CreateFile("/f", 1).ok());
  (void)hdfs.Stat("/f");
  (void)hdfs.ListDir("/");
  EXPECT_GE(hdfs.metadata_rpcs() - before, 3);
}

// ---- Cluster / JobTracker -----------------------------------------------------

JobSpec TrivialJob() {
  JobSpec spec;
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 1;
  spec.map_compute_seconds = 0.01;
  spec.reduce_compute_seconds = 0.01;
  return spec;
}

TEST(Cluster, TrivialJobPaysThirtySecondFloor) {
  HadoopCluster cluster{ClusterConfig{}};
  auto result = cluster.RunJob(TrivialJob());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Paper §V-B: "Hadoop takes approximately 30 seconds per iteration" /
  // "at least 30 seconds for each MapReduce operation".
  EXPECT_GE(result->total, 20.0);
  EXPECT_LE(result->total, 45.0);
}

TEST(Cluster, PhasesArePositiveAndSumSensibly) {
  HadoopCluster cluster{ClusterConfig{}};
  auto result = cluster.RunJob(TrivialJob());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->submit, 0);
  EXPECT_GT(result->setup, 0);
  EXPECT_GT(result->map_phase, 0);
  EXPECT_GT(result->reduce_phase, 0);
  EXPECT_GT(result->cleanup, 0);
  EXPECT_LE(result->submit + result->setup + result->map_phase +
                result->reduce_phase + result->cleanup,
            result->total + 1e-9);
}

TEST(Cluster, ComputeTimeAddsToMakespan) {
  HadoopCluster cluster{ClusterConfig{}};
  JobSpec light = TrivialJob();
  JobSpec heavy = TrivialJob();
  heavy.map_compute_seconds = 120.0;
  auto t_light = cluster.RunJob(light);
  auto t_heavy = cluster.RunJob(heavy);
  ASSERT_TRUE(t_light.ok() && t_heavy.ok());
  EXPECT_GT(t_heavy->total, t_light->total + 100.0);
}

TEST(Cluster, ParallelMapsScaleAcrossSlots) {
  // 126 slots (21 nodes x 6): 126 one-minute maps should take far less
  // than 126 minutes — but more than one map's worth.
  ClusterConfig config;
  HadoopCluster cluster(config);
  JobSpec spec = TrivialJob();
  spec.num_map_tasks = 126;
  spec.map_compute_seconds = 60.0;
  auto result = cluster.RunJob(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->total, 60.0 * 126 / 10);
  EXPECT_GT(result->total, 60.0);
}

TEST(Cluster, ManySmallFilesInflateStartup) {
  // The paper: with 31,173 files Hadoop's data loading alone took ~9
  // minutes.  getSplits cost is per file.
  HadoopCluster cluster{ClusterConfig{}};
  JobSpec small = TrivialJob();
  small.num_input_files = 100;
  small.num_input_dirs = 4;
  JobSpec gutenberg = TrivialJob();
  gutenberg.num_map_tasks = 100;
  gutenberg.num_input_files = 31173;
  gutenberg.num_input_dirs = 1200;
  auto t_small = cluster.RunJob(small);
  auto t_big = cluster.RunJob(gutenberg);
  ASSERT_TRUE(t_small.ok() && t_big.ok());
  EXPECT_GT(t_big->submit, 300.0);   // minutes of split computation
  EXPECT_LT(t_small->submit, 10.0);
}

TEST(Cluster, MapOnlyJobSupported) {
  HadoopCluster cluster{ClusterConfig{}};
  JobSpec spec = TrivialJob();
  spec.num_reduce_tasks = 0;
  auto result = cluster.RunJob(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->reduce_phase, 0.0);
  EXPECT_GT(result->total, 10.0);
}

TEST(Cluster, IterativeJobsPayOverheadEveryIteration) {
  HadoopCluster cluster{ClusterConfig{}};
  JobSpec spec = TrivialJob();
  auto one = cluster.RunIterativeJobs(spec, 1);
  auto ten = cluster.RunIterativeJobs(spec, 10);
  ASSERT_TRUE(one.ok() && ten.ok());
  double per_iteration = (*ten - *one) / 9.0;
  EXPECT_GE(per_iteration, 20.0);  // the ~30 s per-iteration cost
  EXPECT_LE(per_iteration, 45.0);
}

TEST(Cluster, DaemonBringupChargedWhenNotRunning) {
  ClusterConfig config;
  config.daemons_running = false;
  HadoopCluster cold(config);
  HadoopCluster warm{ClusterConfig{}};
  auto t_cold = cold.RunJob(TrivialJob());
  auto t_warm = warm.RunJob(TrivialJob());
  ASSERT_TRUE(t_cold.ok() && t_warm.ok());
  EXPECT_GT(t_cold->total, t_warm->total + 30.0);
}

TEST(Cluster, HeartbeatIntervalDrivesLatency) {
  // Halving the heartbeat interval should reduce trivial-job latency.
  ClusterConfig fast;
  fast.heartbeat_interval = 0.5;
  fast.completion_poll_interval = 0.5;
  ClusterConfig slow;
  auto t_fast = HadoopCluster(fast).RunJob(TrivialJob());
  auto t_slow = HadoopCluster(slow).RunJob(TrivialJob());
  ASSERT_TRUE(t_fast.ok() && t_slow.ok());
  EXPECT_LT(t_fast->total, t_slow->total);
}

TEST(Cluster, RejectsZeroMapTasks) {
  HadoopCluster cluster{ClusterConfig{}};
  JobSpec spec;
  spec.num_map_tasks = 0;
  EXPECT_FALSE(cluster.RunJob(spec).ok());
}

// ---- Java-flavoured API ---------------------------------------------------------

class JavaWordCountMapper : public javaapi::Mapper {
 public:
  void map(const javaapi::LongWritable& key, const javaapi::Text& value,
           javaapi::Context& context) override {
    (void)key;
    for (std::string_view token : SplitWhitespace(value.toString())) {
      javaapi::Text word{std::string(token)};
      context.write(word, javaapi::IntWritable(1));
    }
  }
};

class JavaIntSumReducer : public javaapi::Reducer {
 public:
  void reduce(const javaapi::Text& key,
              const std::vector<javaapi::IntWritable>& values,
              javaapi::Context& context) override {
    int64_t sum = 0;
    for (const auto& v : values) sum += v.get();
    context.write(key, javaapi::IntWritable(sum));
  }
};

class JavaApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mrs_javaapi_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "a.txt"),
                                "alpha beta alpha\n").ok());
    ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "b.txt"), "beta\n").ok());
  }
  void TearDown() override { RemoveTree(dir_); }
  std::string dir_;
};

TEST_F(JavaApiTest, WordCountExecutesAndSimulates) {
  javaapi::Configuration conf;
  auto job = javaapi::Job::getInstance(conf, "wc");
  ASSERT_TRUE(job.ok());
  (*job)->setJarByClass("WordCount");
  (*job)->setMapperClass<JavaWordCountMapper>();
  (*job)->setCombinerClass<JavaIntSumReducer>();
  (*job)->setReducerClass<JavaIntSumReducer>();
  (*job)->setOutputKeyClass("Text");
  (*job)->setOutputValueClass("IntWritable");
  javaapi::FileInputFormat::addInputPath(**job, javaapi::Path(dir_));
  javaapi::FileOutputFormat::setOutputPath(**job, javaapi::Path("/dev/null"));
  auto ok = (*job)->waitForCompletion(false);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);

  std::map<std::string, int64_t> counts;
  for (const KeyValue& kv : (*job)->output()) {
    counts[kv.key.AsString()] = kv.value.AsInt();
  }
  EXPECT_EQ(counts.at("alpha"), 2);
  EXPECT_EQ(counts.at("beta"), 2);
  EXPECT_GT((*job)->simulated_timing().total, 10.0);
}

TEST_F(JavaApiTest, ForgettingTheRitualFails) {
  javaapi::Configuration conf;
  auto job = javaapi::Job::getInstance(conf, "wc");
  ASSERT_TRUE(job.ok());
  (*job)->setJarByClass("WordCount");
  (*job)->setMapperClass<JavaWordCountMapper>();
  // Missing reducer/output classes/paths.
  auto ok = (*job)->waitForCompletion(false);
  EXPECT_FALSE(ok.ok());
}

TEST_F(JavaApiTest, NestedInputDirectoryRejected) {
  ASSERT_TRUE(EnsureDir(JoinPath(dir_, "nested/deep")).ok());
  ASSERT_TRUE(
      WriteFileAtomic(JoinPath(dir_, "nested/deep/c.txt"), "x\n").ok());
  javaapi::Configuration conf;
  auto job = javaapi::Job::getInstance(conf, "wc");
  ASSERT_TRUE(job.ok());
  (*job)->setJarByClass("WordCount");
  (*job)->setMapperClass<JavaWordCountMapper>();
  (*job)->setReducerClass<JavaIntSumReducer>();
  (*job)->setOutputKeyClass("Text");
  (*job)->setOutputValueClass("IntWritable");
  javaapi::FileInputFormat::addInputPath(**job, javaapi::Path(dir_));
  javaapi::FileOutputFormat::setOutputPath(**job, javaapi::Path("/dev/null"));
  auto ok = (*job)->waitForCompletion(false);
  EXPECT_FALSE(ok.ok());
  EXPECT_NE(ok.status().message().find("not flat"), std::string::npos);
}

// ---- Startup-script models ----------------------------------------------------

TEST(Scripts, MrsScriptHasFourSteps) {
  auto steps = MrsStartupScript(20);
  EXPECT_EQ(steps.size(), 4u);  // the paper's Program 3
  ScriptSummary summary = Summarize(steps);
  EXPECT_EQ(summary.config_rewrites, 0);
  EXPECT_EQ(summary.daemon_actions, 0);
  EXPECT_EQ(summary.data_copies, 0);
}

TEST(Scripts, HadoopScriptIsHeavyweight) {
  auto steps = HadoopStartupScript(20);
  ScriptSummary summary = Summarize(steps);
  EXPECT_GT(summary.total_steps, 10);
  EXPECT_GE(summary.config_rewrites, 1);   // the sed step
  EXPECT_GE(summary.daemon_actions, 4);    // format + start/stop daemons
  EXPECT_GE(summary.data_copies, 2);       // copy in and out of HDFS
  EXPECT_GT(summary.overhead_seconds,
            Summarize(MrsStartupScript(20)).overhead_seconds * 10);
}

}  // namespace
}  // namespace hadoopsim
}  // namespace mrs

// Appended: WebHDFS gateway tests (the paper's "in progress" feature,
// finished here).
#include "hadoopsim/webhdfs.h"
#include "http/client.h"

namespace mrs {
namespace hadoopsim {
namespace {

class WebHdfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = WebHdfsServer::Start();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }
  std::unique_ptr<WebHdfsServer> server_;
};

TEST_F(WebHdfsTest, CreateOpenRoundTripOverRest) {
  std::string base = "http://" + server_->addr().ToString();
  HttpClient client(server_->addr());

  HttpRequest put;
  put.method = "PUT";
  put.target = "/webhdfs/v1/data/input.txt?op=CREATE";
  put.body = "line one\nline two\n";
  auto created = client.Do(put);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->status_code, 201);

  auto opened = client.Get("/webhdfs/v1/data/input.txt?op=OPEN");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->status_code, 200);
  EXPECT_EQ(opened->body, "line one\nline two\n");
}

TEST_F(WebHdfsTest, ListStatusAndFileStatus) {
  ASSERT_TRUE(server_->Create("/in/a", "aaa").ok());
  ASSERT_TRUE(server_->Create("/in/b", "bb").ok());
  HttpClient client(server_->addr());
  auto listing = client.Get("/webhdfs/v1/in?op=LISTSTATUS");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->body.find("/in/a"), std::string::npos);
  EXPECT_NE(listing->body.find("/in/b"), std::string::npos);

  auto stat = client.Get("/webhdfs/v1/in/a?op=GETFILESTATUS");
  ASSERT_TRUE(stat.ok());
  EXPECT_NE(stat->body.find("length=3"), std::string::npos);
}

TEST_F(WebHdfsTest, DeleteRemovesFile) {
  ASSERT_TRUE(server_->Create("/x", "1").ok());
  HttpClient client(server_->addr());
  HttpRequest del;
  del.method = "DELETE";
  del.target = "/webhdfs/v1/x?op=DELETE";
  auto deleted = client.Do(del);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status_code, 200);
  auto open = client.Get("/webhdfs/v1/x?op=OPEN");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->status_code, 404);
}

TEST_F(WebHdfsTest, UnknownOpAndBadPathRejected) {
  HttpClient client(server_->addr());
  EXPECT_EQ(client.Get("/webhdfs/v1/x?op=FROBNICATE")->status_code, 400);
  EXPECT_EQ(client.Get("/elsewhere?op=OPEN")->status_code, 404);
  EXPECT_EQ(client.Get("/webhdfs/v1/missing?op=OPEN")->status_code, 404);
}

TEST_F(WebHdfsTest, WebHdfsFetchHelper) {
  ASSERT_TRUE(server_->Create("/corpus/doc.txt", "the data").ok());
  std::string url = "webhdfs://" + server_->addr().ToString() +
                    "/corpus/doc.txt";
  auto content = WebHdfsFetch(url);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(*content, "the data");
  EXPECT_FALSE(WebHdfsFetch("webhdfs://bad").ok());
  EXPECT_FALSE(WebHdfsFetch("http://not-webhdfs/x").ok());
}

TEST_F(WebHdfsTest, LostBlocksFailReads) {
  ASSERT_TRUE(server_->Create("/doomed", "contents").ok());
  for (int node = 0; node < server_->hdfs().num_datanodes(); ++node) {
    server_->hdfs().KillDatanode(node);
  }
  auto read = server_->Open("/doomed");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hadoopsim
}  // namespace mrs

// Appended: webhdfs:// URLs as MapReduce task input, via the scheme
// registry ("Mrs can read ... any filesystem", §IV-B).
#include "core/fetch_registry.h"
#include "core/task.h"
#include "ser/record.h"

namespace mrs {
namespace hadoopsim {
namespace {

TEST(FetchRegistry, BuiltinsAndUnknownSchemes) {
  EXPECT_TRUE(CanResolveUrl("file:///tmp/x"));
  EXPECT_TRUE(CanResolveUrl("http://h:1/x"));
  EXPECT_TRUE(CanResolveUrl("text+file:///tmp/x"));
  EXPECT_FALSE(CanResolveUrl("gopher://h/x"));
  EXPECT_FALSE(ResolveUrl("gopher://h/x").ok());
}

TEST(FetchRegistry, WebHdfsBucketsFeedTasks) {
  auto server = WebHdfsServer::Start();
  ASSERT_TRUE(server.ok());
  RegisterUrlScheme("webhdfs", [](const std::string& url) {
    return WebHdfsFetch(url);
  });

  // Store binary MapReduce records in the (simulated) cluster filesystem.
  std::vector<KeyValue> records = {{Value("k"), Value(int64_t{5})},
                                   {Value("k2"), Value(int64_t{7})}};
  ASSERT_TRUE(
      (*server)->Create("/stage/bucket0", EncodeBinaryRecords(records)).ok());

  std::string url =
      "webhdfs://" + (*server)->addr().ToString() + "/stage/bucket0";
  ASSERT_TRUE(CanResolveUrl(url));
  std::vector<Bucket> column = InputColumn({TaskInputPart::Url(url)});
  ASSERT_EQ(column.size(), 1u);
  Status loaded = column[0].EnsureLoaded(
      [](const std::string& u) { return ResolveUrl(u); });
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(column[0].records(), records);
}

}  // namespace
}  // namespace hadoopsim
}  // namespace mrs
