// wirebench: the wire-level benchmark for avqdb.
//
// One process loads a seeded §5.3 reference relation into an in-process
// Database, serves it through server::Server on loopback, and drives it
// from closed-loop client connections at pipeline depth 1 (every avqdb
// caller waits for each reply). Every answer is checked against a
// reference computed from the generated tuples (oracle.h).
//
//   wirebench --workload scan_ref|point_zipf|ingest_mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--corrupt-oracle]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload and seed untraced, then traced (kQueryFlagCollectTrace on every
// QUERY), then replays the traced request stream in process through
// ExecuteConjunctiveSelect, and reports the per-layer metrics and the
// Eq 5.7 ledger C = I + N(t1 + t3). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong answer
// exits 1.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/avq/decode_kernel.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/db/query.h"
#include "src/obs/metric_names.h"
#include "src/obs/quantile.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/storage/block_device.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "wirebench/oracle.h"
#include "wirebench/probes.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace avqdb::wirebench {
namespace {

constexpr size_t kBlockSize = 8192;
// Initial table size. At this size the table is ~1.2 MB compressed, well
// inside one core's 8 MiB L2, and a full scan still takes milliseconds,
// so block fetch and decode dominate scan_ref while setup (the secondary
// index build above all) stays short enough to repeat in every run.
constexpr size_t kTuples = 100000;
// Fresh keys the writers insert and delete; never part of the initial
// table.
constexpr size_t kPool = 4096;
// Each writer keeps at most this many of its inserts live, deleting its
// oldest insert before the next one once the window is full.
constexpr size_t kWriterWindow = 256;
constexpr size_t kSetupRepeats = 3;
// Unmeasured lead-in before each measured window (capped at 20% of
// --seconds): long enough for the first inserts' block splits to finish.
constexpr double kWarmupSeconds = 3.0;
constexpr size_t kRangeCases = 64;
constexpr double kZipfExponent = 0.99;
// The commit probe that follows the read phase of the read-only
// workloads: ingest_mixed's writers without its reader, for this share of
// --seconds.
constexpr size_t kProbeWriters = 2;
constexpr double kProbeShare = 0.5;
constexpr char kTable[] = "ref";

enum class ReadKind { kRange, kPoint };

struct Workload {
  const char* name;
  const char* why;
  ReadKind read;
  size_t readers;
  size_t writers;  // 0: read-only; a 2-writer commit probe follows
  bool key_index;
};

constexpr Workload kWorkloads[] = {
    {"scan_ref",
     "Fig 5.8 range selections (1/4 clustered on attribute 0, the rest "
     "2%-wide full scans) over 3 connections: block fetch (t1) and decode "
     "(t3) do nearly all the work; the wire is a small share.",
     ReadKind::kRange, 3, 0, false},
    {"point_zipf",
     "Zipf(0.99) equality lookups on the unique key through its secondary "
     "index over 3 connections: fixed per-request costs (wire, strand, "
     "admission, plan, index probe, one block decode) dominate.",
     ReadKind::kPoint, 3, 0, true},
    {"ingest_mixed",
     "2 writers commit single-op MUTATEs (fdatasync per group commit, "
     "default WriteAheadTableOptions) beside 1 unthrottled Zipf reader: "
     "group commit, WAL fsync, the applier and snapshot merge.",
     ReadKind::kPoint, 1, 2, true},
};

// ---------------------------------------------------------------- args

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_oracle = false;
  std::string work_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload "
               "scan_ref|point_zipf|ingest_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--corrupt-oracle]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == value) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
      if (!(args.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload == nullptr) Usage("--workload is required");
  return args;
}

// ---------------------------------------------------------------- host

struct Host {
  unsigned nproc = 0;
  std::string cpu;
  long l2_bytes = 0;
};

Host DescribeHost() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    host.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    host.cpu = brand;
    while (!host.cpu.empty() && host.cpu.back() == ' ') host.cpu.pop_back();
  }
#endif
  host.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return host;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

// ------------------------------------------------------------- serving

// One served instance of the relation. Torn down in dependency order:
// the server drains first, then the database (whose write-ahead entry
// drains its applier), then the WAL devices it used.
struct Served {
  std::string wal_path;
  std::unique_ptr<FileBlockDevice> wal_file;
  std::unique_ptr<TimedBlockDevice> wal;
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;

  ~Served() {
    if (server != nullptr) server->Shutdown(std::chrono::milliseconds(5000));
    server.reset();
    db.reset();
    wal.reset();
    wal_file.reset();
    if (!wal_path.empty()) std::filesystem::remove(wal_path);
  }

  Table* table() const { return db->GetTable(kTable).value(); }
  WriteAheadTable* ingest() const {
    Result<WriteAheadTable*> r = db->GetIngest(kTable);
    return r.ok() ? *r : nullptr;
  }

  // Attaches a write-ahead log on a fresh file, behind the timing
  // decorator, under default WriteAheadTableOptions.
  Status EnableWal(const std::string& path) {
    AVQDB_ASSIGN_OR_RETURN(wal_file,
                           FileBlockDevice::Create(path, kBlockSize));
    wal_path = path;
    wal = std::make_unique<TimedBlockDevice>(wal_file.get());
    return db->EnableWriteAhead(kTable, WriteAheadTableOptions{}, wal.get());
  }
};

struct SetupTimes {
  double setup_s = 0;
  double bulk_load_s = 0;
  double index_build_s = 0;
};

// CreateTable + BulkLoad [+ CreateSecondaryIndex] [+ EnableWriteAhead] +
// Server::Start, timed from the moment the tuples are handed over.
Result<std::unique_ptr<Served>> SetUp(const Workload& w, SchemaPtr schema,
                                      std::vector<OrdinalTuple> tuples,
                                      const std::string& wal_path,
                                      SetupTimes* times) {
  auto served = std::make_unique<Served>();
  const auto start = Clock::now();
  served->db = std::make_unique<Database>(kBlockSize);
  AVQDB_ASSIGN_OR_RETURN(Table * table,
                         served->db->CreateTable(kTable, schema,
                                                 TableKind::kAvq));
  const auto load_start = Clock::now();
  AVQDB_RETURN_IF_ERROR(table->BulkLoad(std::move(tuples)));
  times->bulk_load_s = Seconds(load_start, Clock::now());
  if (w.key_index) {
    const auto index_start = Clock::now();
    AVQDB_RETURN_IF_ERROR(
        table->CreateSecondaryIndex(schema->num_attributes() - 1));
    times->index_build_s = Seconds(index_start, Clock::now());
  }
  if (w.writers > 0) AVQDB_RETURN_IF_ERROR(served->EnableWal(wal_path));
  // As many admission slots as connections: the design sheds nothing.
  AdmissionOptions admission;
  admission.max_concurrency = w.readers + w.writers;
  served->db->EnableAdmissionControl(admission);
  served->server = std::make_unique<server::Server>(served->db.get());
  AVQDB_RETURN_IF_ERROR(served->server->Start());
  times->setup_s = Seconds(start, Clock::now());
  return served;
}

// ------------------------------------------------------------ requests

// What one traced QUERY's server-side span tree says, folded to the
// layers the ledger reports.
struct ServerSpans {
  double admission_ns = 0;
  double select_ns = 0;
  double plan_ns = 0;
  double scan_self_ns = 0;  // filter + materialization
  double index_ns = 0;
  bool has_index = false;
  double decode_ns = 0;  // block:decode spans (fetch + decode)
  uint64_t decode_blocks = 0;
  uint64_t tuples_decoded = 0;
  uint64_t dropped = 0;
};

ServerSpans FoldTrace(const obs::QueryTrace& trace) {
  ServerSpans out;
  const auto& spans = trace.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent != obs::QueryTrace::kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.duration_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double d = static_cast<double>(s.duration_ns);
    if (s.name == "admission") {
      out.admission_ns += d;
    } else if (s.name == "select") {
      out.select_ns += d;
    } else if (s.name == "plan") {
      out.plan_ns += d;
    } else if (s.name.rfind("scan:", 0) == 0) {
      out.scan_self_ns += std::max(0.0, d - child_ns[i]);
    } else if (s.name == "index_lookup") {
      out.index_ns += std::max(0.0, d - child_ns[i]);
      out.has_index = true;
    } else if (s.name == "block:decode") {
      out.decode_ns += d;
      ++out.decode_blocks;
      for (const auto& [key, value] : s.attrs) {
        if (key == "tuples_decoded") out.tuples_decoded += value;
      }
    }
  }
  out.dropped = trace.dropped_spans();
  return out;
}

struct TracedQuery {
  uint64_t request_id = 0;  // unique across connections
  uint64_t conn = 0;
  uint64_t start_ns = 0;  // since the traced phase began
  double rtt_ns = 0;      // SendQuery -> ReadResponse (client span)
  double send_ns = 0;     // SendQuery alone
  uint64_t tuples = 0;
  ServerSpans server;
  ConjunctiveQuery query;
};

// Per-connection tallies for one phase.
struct OpLog {
  Series query_ms;
  Series mutate_ms;
  uint64_t queries = 0;
  uint64_t mutations = 0;
  uint64_t failed = 0;  // server verdicts other than OK (errors, shed)
  uint64_t tuples = 0;
  std::vector<TracedQuery> traced;
};

// A connection's writer state: its partition of the pool, the next pool
// slot to insert, and its live inserts, oldest first. `live` changes only
// on an acked MUTATE_OK, so at the end it is the fold of the acked ops.
struct WriterState {
  std::vector<size_t> partition;  // generated-tuple indexes
  size_t next = 0;
  std::deque<size_t> live;
  bool last_was_insert = false;
};

struct Connection {
  std::unique_ptr<server::Client> client;
  Random rng{0};
  uint64_t next_id = 1;
  std::optional<WriterState> writer;
};

struct Shared {
  const Oracle* oracle = nullptr;
  const std::vector<RangeCase>* ranges = nullptr;
  const ZipfSampler* zipf = nullptr;
  const std::vector<uint64_t>* key_of_rank = nullptr;
  size_t key_attr = 0;
  std::atomic<bool> abort{false};
  std::mutex mu;
  Status fatal;       // transport failure (ambiguous outcome)
  Status wrong;       // oracle mismatch
  void Fail(Status* slot, Status s) {
    std::lock_guard<std::mutex> lock(mu);
    if (slot->ok()) *slot = std::move(s);
    abort.store(true);
  }
};

struct PhasePlan {
  double seconds = 0;
  bool traced = false;
  bool record = true;     // false: warm-up, nothing counted
  Clock::time_point start{};  // set when the phase begins
};

// One closed-loop read: a range case or a Zipf key lookup.
void DoRead(Connection& c, ReadKind kind, Shared& sh, const PhasePlan& plan,
            OpLog& log, uint64_t conn_index) {
  server::QueryRequest req;
  req.table = kTable;
  req.flags = plan.traced ? server::kQueryFlagCollectTrace : 0;
  const RangeCase* range = nullptr;
  uint64_t key = 0;
  if (kind == ReadKind::kRange) {
    range = &(*sh.ranges)[c.rng.Uniform(sh.ranges->size())];
    req.query = range->query;
  } else {
    key = (*sh.key_of_rank)[sh.zipf->Sample(c.rng)];
    req.query.predicates.push_back(RangeQuery{sh.key_attr, key, key});
  }
  const uint64_t id = c.next_id++;
  const auto t0 = Clock::now();
  Status sent = c.client->SendQuery(id, req);
  const auto t1 = Clock::now();
  Result<server::Client::QueryResponse> resp =
      sent.ok() ? c.client->ReadResponse()
                : Result<server::Client::QueryResponse>(sent);
  const auto t2 = Clock::now();
  if (!resp.ok()) {
    sh.Fail(&sh.fatal, resp.status());
    return;
  }
  if (plan.record) ++log.queries;
  if (!resp->status.ok()) {
    if (plan.record) ++log.failed;
    return;
  }
  Status verdict = kind == ReadKind::kRange
                       ? Oracle::CheckRange(*range, resp->tuples)
                       : sh.oracle->CheckPoint(key, req.query, resp->tuples);
  if (!verdict.ok()) {
    sh.Fail(&sh.wrong, verdict);
    return;
  }
  if (!plan.record) return;
  log.tuples += resp->tuples.size();
  log.query_ms.Add(Seconds(plan.start, t0),
                   static_cast<double>(NanosBetween(t0, t2)) / 1e6);
  if (plan.traced && resp->has_trace) {
    TracedQuery tq;
    tq.request_id = id;
    tq.conn = conn_index;
    tq.start_ns = NanosBetween(plan.start, t0);
    tq.rtt_ns = static_cast<double>(NanosBetween(t0, t2));
    tq.send_ns = static_cast<double>(NanosBetween(t0, t1));
    tq.tuples = resp->tuples.size();
    tq.server = FoldTrace(resp->trace);
    tq.query = std::move(req.query);
    log.traced.push_back(std::move(tq));
  }
}

// One closed-loop single-op MUTATE: a fresh insert from the writer's
// partition, or, once its window is full, alternately a delete of its
// oldest live insert.
void DoWrite(Connection& c, Shared& sh, const PhasePlan& plan, OpLog& log) {
  WriterState& w = *c.writer;
  const bool insert = w.live.size() < kWriterWindow || !w.last_was_insert;
  size_t index = 0;
  server::MutateRequest req;
  req.table = kTable;
  if (insert) {
    index = w.partition[w.next];
    req.batch.Insert(sh.oracle->generated()[index]);
  } else {
    index = w.live.front();
    req.batch.Delete(sh.oracle->generated()[index]);
  }
  const auto t0 = Clock::now();
  Result<server::Client::MutateOutcome> out = c.client->MutateCall(req);
  const auto t1 = Clock::now();
  if (!out.ok()) {
    sh.Fail(&sh.fatal, out.status());
    return;
  }
  if (plan.record) ++log.mutations;
  if (!out->status.ok()) {
    if (plan.record) ++log.failed;
    return;
  }
  if (insert) {
    w.live.push_back(index);
    w.next = (w.next + 1) % w.partition.size();
  } else {
    w.live.pop_front();
  }
  w.last_was_insert = insert;
  if (!plan.record) return;
  log.mutate_ms.Add(Seconds(plan.start, t0),
                    static_cast<double>(NanosBetween(t0, t1)) / 1e6);
}

struct Tally {
  Series query_ms, mutate_ms;
  uint64_t queries = 0, mutations = 0, failed = 0, tuples = 0;
  std::vector<TracedQuery> traced;
};

Tally Merge(std::vector<OpLog>& logs) {
  Tally t;
  for (OpLog& log : logs) {
    t.query_ms.Append(log.query_ms);
    t.mutate_ms.Append(log.mutate_ms);
    t.queries += log.queries;
    t.mutations += log.mutations;
    t.failed += log.failed;
    t.tuples += log.tuples;
    for (TracedQuery& q : log.traced) t.traced.push_back(std::move(q));
  }
  return t;
}

// --------------------------------------------------------------- output

struct MetricValue {
  double value = 0;
  std::string unit;
};

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric @ workload it should move
};

// Every per-layer metric, with the end-to-end metric and workload each
// should move. All are emitted on every workload; a layer a workload does
// not exercise reports 0 and says "n/a".
constexpr LayerSpec kLayers[] = {
    {"server.rtt_ms.p50", "ms", "query_p50_ms@every workload"},
    {"server.rtt_ms.p99", "ms", "query_p99_ms@every workload"},
    {"server.wire_ms.p50", "ms", "query_p50_ms@point_zipf"},
    {"server.result_bytes_per_tuple", "B/tuple", "query_qps@scan_ref"},
    {"server.queue_ms.p99", "ms", "query_p99_ms@point_zipf"},
    {"db.select_ms.p50", "ms", "query_p50_ms@scan_ref,point_zipf"},
    {"db.admission_ms.p99", "ms", "query_p99_ms@scan_ref"},
    {"db.plan_us.p50", "us", "query_p50_ms@point_zipf"},
    {"db.filter_ms.p50", "ms", "query_qps@scan_ref"},
    {"db.examined_per_matched", "ratio", "query_qps@scan_ref"},
    {"db.write.batches_per_fsync", "ratio", "mutate_ops_per_s@ingest_mixed"},
    {"db.write.apply_lag_batches.p50", "count", "mutate_p99_ms@ingest_mixed"},
    {"db.write.apply_lag_batches.max", "count", "mutate_p99_ms@ingest_mixed"},
    {"db.write.backpressure_waits_per_kop", "count",
     "mutate_p99_ms@ingest_mixed"},
    {"index.lookup_us.p50", "us", "query_p50_ms@point_zipf"},
    {"index.blocks_per_query", "count", "query_p50_ms@point_zipf"},
    {"index.build_s", "s", "setup_s@point_zipf,ingest_mixed"},
    {"index.bytes_per_data_byte", "ratio",
     "stored_bytes_per_user_byte@point_zipf"},
    {"avq.decode_us_per_block", "us", "query_qps@scan_ref,point_zipf"},
    {"avq.decode_ns_per_tuple", "ns", "query_qps@scan_ref,point_zipf"},
    {"avq.tuples_decoded_per_match", "ratio", "query_p50_ms@point_zipf"},
    {"avq.bulk_load_s", "s", "setup_s@every workload"},
    {"avq.encode_blocks_per_op", "ratio", "mutate_ops_per_s@ingest_mixed"},
    {"storage.blocks_per_query", "count", "query_qps@scan_ref"},
    {"storage.fetch_us_per_block", "us", "query_qps@scan_ref"},
    {"storage.wal.fsync_ms.p50", "ms", "mutate_p50_ms@ingest_mixed"},
    {"storage.wal.fsync_ms.p99", "ms", "mutate_p99_ms@ingest_mixed"},
    {"storage.wal.bytes_per_op", "B/op", "mutate_ops_per_s@ingest_mixed"},
    {"storage.write_amp", "ratio", "mutate_ops_per_s@ingest_mixed"},
    {"ledger.select_ms.mean", "ms", "query_p50_ms@scan_ref,point_zipf"},
    {"ledger.eq57_predicted_ms", "ms", "query_p50_ms@scan_ref,point_zipf"},
    {"ledger.unattributed_pct", "%", "query_p50_ms@point_zipf"},
    {"obs.trace_overhead_pct", "%", "query_p50_ms@every workload"},
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    values_[name] = MetricValue{value, unit};
    notes_[name] = note;
  }
  const MetricValue& Get(const std::string& name) const {
    return values_.at(name);
  }
  const std::string& Note(const std::string& name) const {
    return notes_.at(name);
  }

 private:
  std::map<std::string, MetricValue> values_;
  std::map<std::string, std::string> notes_;
};

std::string SampleNote(Samples& s, double q) {
  return "n=" + std::to_string(s.size()) + ", " +
         std::to_string(s.BeyondPercentile(q)) + " beyond";
}

// ------------------------------------------------------------- phases

enum class Role { kReader, kWriter, kIdle };

// Runs every active connection's closed loop on its own thread until the
// phase's deadline.
std::vector<OpLog> RunPhase(std::vector<Connection>& conns,
                            const std::vector<Role>& roles, ReadKind read,
                            Shared& sh, PhasePlan plan) {
  std::vector<OpLog> logs(conns.size());
  plan.start = Clock::now();
  const auto stop_at =
      plan.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan.seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns.size(); ++i) {
    if (roles[i] == Role::kIdle) continue;
    threads.emplace_back([&, i] {
      OpLog& log = logs[i];
      while (!sh.abort.load(std::memory_order_relaxed) &&
             Clock::now() < stop_at) {
        if (roles[i] == Role::kWriter) {
          DoWrite(conns[i], sh, plan, log);
        } else {
          DoRead(conns[i], read, sh, plan, log, i);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

// What the probes saw around one phase: registry snapshots (over the
// wire), and, with a WAL attached, its device counts, fsync times and
// the apply-lag samples.
struct Window {
  obs::MetricsSnapshot before, after;
  TimedBlockDevice::Counts wal_before, wal_after;
  Samples lag, fsync_ms;
};

Result<obs::MetricsSnapshot> FetchMetrics(server::Client& control) {
  AVQDB_ASSIGN_OR_RETURN(server::Client::StatsResult stats,
                         control.FetchStats(server::kStatsSectionMetrics));
  return std::move(stats.metrics);
}

std::vector<OpLog> RunWatched(Served& served, std::vector<Connection>& conns,
                       const std::vector<Role>& roles, ReadKind read,
                       Shared& sh, const PhasePlan& plan, Window* window) {
  server::Client& control = *conns[0].client;
  Result<obs::MetricsSnapshot> before = FetchMetrics(control);
  if (!before.ok()) sh.Fail(&sh.fatal, before.status());
  window->before = before.ok() ? std::move(*before) : obs::MetricsSnapshot{};
  WriteAheadTable* ingest = served.ingest();
  std::optional<ApplyLagSampler> sampler;
  if (ingest != nullptr) {
    window->wal_before = served.wal->counts();
    served.wal->SetRecording(true);
    sampler.emplace(ingest, std::chrono::milliseconds(2));
  }
  std::vector<OpLog> phase = RunPhase(conns, roles, read, sh, plan);
  if (ingest != nullptr) {
    sampler->Stop();
    window->lag = std::move(sampler->lag());
    served.wal->SetRecording(false);
    window->fsync_ms = served.wal->TakeSyncMs();
    window->wal_after = served.wal->counts();
  }
  Result<obs::MetricsSnapshot> after = FetchMetrics(control);
  if (!after.ok()) sh.Fail(&sh.fatal, after.status());
  window->after = after.ok() ? std::move(*after) : obs::MetricsSnapshot{};
  return phase;
}

// ------------------------------------------------------------- replay

// The traced request stream replayed in process through
// ExecuteConjunctiveSelect, for the counts only QueryStats has: I (index
// blocks), N (data blocks), tuples examined, matched and decoded. t1 is
// timed here too, around Pager::Read of every data block.
struct ReplayStats {
  double queries = 0;
  double index_blocks = 0;
  double data_blocks = 0;
  double examined = 0;
  double matched = 0;
  double decoded = 0;
  double t1_us = 0;
};

Result<ReplayStats> Replay(const Table& table,
                           const std::vector<TracedQuery>& traced,
                           const std::vector<size_t>& which) {
  ReplayStats out;
  for (size_t i : which) {
    QueryStats stats;
    AVQDB_RETURN_IF_ERROR(
        ExecuteConjunctiveSelect(table, traced[i].query, &stats).status());
    out.queries += 1;
    out.index_blocks += static_cast<double>(stats.index_blocks_read);
    out.data_blocks += static_cast<double>(stats.data_blocks_read);
    out.examined += static_cast<double>(stats.tuples_examined);
    out.matched += static_cast<double>(stats.tuples_matched);
    out.decoded += static_cast<double>(stats.tuples_decoded);
  }
  std::vector<BlockId> blocks;
  AVQDB_ASSIGN_OR_RETURN(BPlusTree::Iterator iter,
                         table.primary_index().Begin());
  while (iter.Valid()) {
    blocks.push_back(static_cast<BlockId>(iter.value()));
    AVQDB_RETURN_IF_ERROR(iter.Next());
  }
  constexpr int kPasses = 5;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (BlockId id : blocks) {
      AVQDB_RETURN_IF_ERROR(table.data_pager().Read(id).status());
    }
  }
  out.t1_us = static_cast<double>(NanosBetween(start, Clock::now())) / 1e3 /
              static_cast<double>(kPasses * std::max<size_t>(1, blocks.size()));
  return out;
}

// -------------------------------------------------------------- inputs

// Fig 5.8-style range selections: one in four clustered (one value of
// attribute 0, two of attribute 1), the rest ~2% of a non-leading value
// attribute's domain, which the planner runs as full scans.
std::vector<RangeCase> MakeRangeCases(const Oracle& oracle,
                                      const Schema& schema, Random& rng) {
  const auto& radices = schema.radices();
  const size_t key_attr = schema.num_attributes() - 1;
  std::vector<RangeCase> cases;
  for (size_t i = 0; i < kRangeCases; ++i) {
    ConjunctiveQuery q;
    if (i % 4 == 0) {
      const uint64_t a0 = rng.Uniform(radices[0]);
      const uint64_t a1 = rng.Uniform(radices[1] - 1);
      q.predicates.push_back(RangeQuery{0, a0, a0});
      q.predicates.push_back(RangeQuery{1, a1, a1 + 1});
    } else {
      const size_t attr = 2 + rng.Uniform(key_attr - 2);
      const uint64_t radix = radices[attr];
      const uint64_t width = std::max<uint64_t>(
          1, static_cast<uint64_t>(0.02 * static_cast<double>(radix)));
      const uint64_t lo = rng.Uniform(radix - width + 1);
      q.predicates.push_back(RangeQuery{attr, lo, lo + width - 1});
    }
    cases.push_back(oracle.MakeRange(std::move(q)));
  }
  return cases;
}

// Zipf ranks map to keys through a seeded permutation, so the hot keys
// are scattered over the table rather than packed into its first blocks.
std::vector<uint64_t> ShuffledKeys(size_t n, Random& rng) {
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), 0);
  for (size_t i = n - 1; i > 0; --i) std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  return keys;
}

// Writer `writer` of `writers` owns every pool slot congruent to it, so
// writers never touch each other's keys.
WriterState MakeWriter(size_t writer, size_t writers) {
  WriterState state;
  for (size_t p = writer; p < kPool; p += writers) {
    state.partition.push_back(kTuples + p);
  }
  return state;
}

// ------------------------------------------------------------- results

// Everything one run measured, gathered for the report.
struct Results {
  std::vector<SetupTimes> setups;
  Tally measured, traced, probe;
  Window measured_window, traced_window, probe_window;
  double probe_seconds = 0;
  // The traced queries the query-journal tail also covers, with their
  // journal records: the one request set every ledger row is taken over.
  std::vector<std::pair<size_t, obs::QueryJournal::Record>> ledger_set;
  ReplayStats replay;
  uint64_t data_blocks = 0;
  uint64_t index_blocks = 0;
  uint64_t wal_bytes_live = 0;
  uint64_t final_tuples = 0;
  size_t tuple_bytes = 0;  // m, the uncoded fixed-width tuple size

  double MedianSetup(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  }
  uint64_t stored_bytes() const {
    return (data_blocks + index_blocks) * kBlockSize + wal_bytes_live;
  }
};

// The write stream the write-path metrics describe: ingest_mixed's
// measured phase, or the commit probe on the read-only workloads.
struct WriteStream {
  const Tally& tally;
  const Window& window;
  double seconds;
  std::string source;
  double acked() const { return static_cast<double>(tally.mutate_ms.size()); }
};

WriteStream WritesOf(const Args& args, const Results& r) {
  const Workload& w = *args.workload;
  if (w.writers == 0) {
    return WriteStream{r.probe, r.probe_window, r.probe_seconds,
                       std::to_string(kProbeWriters) +
                           "-writer commit probe after the reads; "};
  }
  return WriteStream{r.measured, r.measured_window, args.seconds,
                     std::to_string(w.writers) + " writers beside " +
                         std::to_string(w.readers) + " reader; "};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// -------------------------------------------------------------- report

// The gated end-to-end metrics, in BENCHMARK.json order.
constexpr const char* kEndToEnd[] = {
    "query_p50_ms",     "query_qps",
    "mutate_p50_ms",    "mutate_p99_ms",
    "mutate_ops_per_s", "ok_op_ratio",
    "stored_bytes_per_user_byte", "peak_rss_mb",
    "setup_s",
};
// Printed beside them but not gated: on ingest_mixed the reader's p99
// moves by about 40% of its median between runs of the same code (two
// sets of ten runs), beyond the largest bound a gate may use.
constexpr const char* kReportedOnly[] = {"query_p99_ms"};

std::string PerSlice(const Series::Sliced& sliced) {
  std::string out = "; per slice:";
  for (double v : sliced.per_slice) out += " " + Num(v);
  return out;
}

void SetPercentile(Report* report, const char* name, const Series& series,
                   double q, double span_s, const std::string& prefix) {
  const Series::Sliced sliced = series.Percentile(q, span_s);
  report->Set(name, sliced.value, "ms",
              prefix + "n=" + std::to_string(series.size()) + ", >=" +
                  std::to_string(sliced.min_beyond) + " beyond" +
                  PerSlice(sliced));
}

void SetRate(Report* report, const char* name, const Series& series,
             double span_s, const std::string& prefix) {
  const Series::Sliced sliced = series.Rate(span_s);
  report->Set(name, sliced.value, "1/s",
              prefix + "n=" + std::to_string(series.size()) +
                  PerSlice(sliced));
}

// The end-to-end metrics, always from the untraced window.
void ReportEndToEnd(const Args& args, const Results& r, Report* report) {
  const Workload& w = *args.workload;
  const WriteStream writes = WritesOf(args, r);
  const Series& q = r.measured.query_ms;
  SetPercentile(report, "query_p50_ms", q, 0.50, args.seconds, "");
  SetPercentile(report, "query_p99_ms", q, 0.99, args.seconds, "");
  SetRate(report, "query_qps", q, args.seconds,
          std::to_string(w.readers) + " reader connections; ");
  const Series& m = writes.tally.mutate_ms;
  SetPercentile(report, "mutate_p50_ms", m, 0.50, writes.seconds,
                writes.source);
  SetPercentile(report, "mutate_p99_ms", m, 0.99, writes.seconds,
                writes.source);
  SetRate(report, "mutate_ops_per_s", m, writes.seconds, writes.source);

  const uint64_t attempted = r.measured.queries + r.measured.mutations +
                             r.probe.mutations;
  const uint64_t failed = r.measured.failed + r.probe.failed;
  const double failed_ratio =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  report->Set("ok_op_ratio", 1.0 - failed_ratio, "ratio",
              "failed_op_ratio=" + Num(failed_ratio) + " (" +
                  std::to_string(failed) + " of " +
                  std::to_string(attempted) +
                  " ops: errors + shed + timeouts)");
  const size_t m_bytes = r.tuple_bytes;
  report->Set("stored_bytes_per_user_byte",
              Ratio(static_cast<double>(r.stored_bytes()),
                    static_cast<double>(r.final_tuples * m_bytes)),
              "ratio",
              std::to_string(r.data_blocks) + " data + " +
                  std::to_string(r.index_blocks) + " index blocks of " +
                  std::to_string(kBlockSize) + " B + " +
                  std::to_string(r.wal_bytes_live) + " live WAL bytes over " +
                  std::to_string(r.final_tuples) + " tuples x " +
                  std::to_string(m_bytes) + " B");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "MiB", "ru_maxrss of the whole benchmark process");
  report->Set("setup_s", r.MedianSetup(&SetupTimes::setup_s), "s",
              "median of " + std::to_string(r.setups.size()) + " setups");
}

// The per-layer metrics, from the traced window, the replay and the
// write-path probes. Returns the ledger: the mean client round trip split
// into the layers that cover it, with Eq 5.7's prediction beside select.
std::vector<std::string> ReportLayers(const Args& args, const Results& r,
                                      Report* report) {
  const Workload& w = *args.workload;
  const WriteStream writes = WritesOf(args, r);
  const Window& ww = writes.window;
  const double acked = writes.acked();
  const std::string& src = writes.source;
  const std::string na = "n/a: this workload does not exercise it";

  Samples rtt, wire, select, admission, plan, filter, index_us;
  double decode_ns = 0, decode_blocks = 0, tuples_decoded = 0;
  for (const TracedQuery& t : r.traced.traced) {
    const ServerSpans& s = t.server;
    rtt.Add(t.rtt_ns / 1e6);
    wire.Add((t.rtt_ns - s.admission_ns - s.select_ns) / 1e6);
    select.Add(s.select_ns / 1e6);
    admission.Add(s.admission_ns / 1e6);
    plan.Add(s.plan_ns / 1e3);
    filter.Add(s.scan_self_ns / 1e6);
    if (s.has_index) index_us.Add(s.index_ns / 1e3);
    decode_ns += s.decode_ns;
    decode_blocks += static_cast<double>(s.decode_blocks);
    tuples_decoded += static_cast<double>(s.tuples_decoded);
  }
  const ReplayStats& replay = r.replay;

  // server
  report->Set("server.rtt_ms.p50", rtt.Percentile(0.5), "ms",
              SampleNote(rtt, 0.5));
  report->Set("server.rtt_ms.p99", rtt.Percentile(0.99), "ms",
              SampleNote(rtt, 0.99));
  report->Set("server.wire_ms.p50", wire.Percentile(0.5), "ms",
              "rtt - admission - select spans; " + SampleNote(wire, 0.5));
  report->Set("server.result_bytes_per_tuple",
              Ratio(static_cast<double>(CounterDelta(
                        r.measured_window.before, r.measured_window.after,
                        obs::kServerBytesSent)),
                    static_cast<double>(r.measured.tuples)),
              "B/tuple",
              "server.net.bytes_sent over tuples returned, untraced window");
  const obs::MetricsSnapshot::HistogramSample queue =
      HistogramDelta(r.traced_window.before, r.traced_window.after,
                     obs::kServerRequestQueueMicros);
  report->Set("server.queue_ms.p99", obs::EstimateQuantile(queue, 0.99) / 1e3,
              "ms",
              "server.request.queue_us via FetchStats, n=" +
                  std::to_string(queue.count) +
                  (w.writers > 0 ? ", MUTATEs included" : ""));

  // db
  report->Set("db.select_ms.p50", select.Percentile(0.5), "ms",
              SampleNote(select, 0.5));
  report->Set("db.admission_ms.p99", admission.Percentile(0.99), "ms",
              SampleNote(admission, 0.99));
  report->Set("db.plan_us.p50", plan.Percentile(0.5), "us",
              SampleNote(plan, 0.5));
  report->Set("db.filter_ms.p50", filter.Percentile(0.5), "ms",
              "self time of scan:* spans; " + SampleNote(filter, 0.5));
  report->Set("db.examined_per_matched", Ratio(replay.examined, replay.matched),
              "ratio", "replay of " + Num(replay.queries) + " queries");
  const double syncs =
      static_cast<double>(ww.wal_after.syncs - ww.wal_before.syncs);
  report->Set("db.write.batches_per_fsync", Ratio(acked, syncs), "ratio",
              src + Num(acked) + " batches, " + Num(syncs) + " WAL syncs");
  Samples lag = ww.lag;
  report->Set("db.write.apply_lag_batches.p50", lag.Percentile(0.5), "count",
              src + "2 ms sampler, n=" + std::to_string(lag.size()));
  report->Set("db.write.apply_lag_batches.max", lag.Max(), "count",
              src + "2 ms sampler, n=" + std::to_string(lag.size()));
  report->Set("db.write.backpressure_waits_per_kop",
              Ratio(1000.0 * static_cast<double>(CounterDelta(
                                 ww.before, ww.after,
                                 obs::kWriteBackpressureWaits)),
                    acked),
              "count", src + "db.write.backpressure_waits delta");

  // index
  const bool indexed = w.key_index;
  report->Set("index.lookup_us.p50", index_us.Percentile(0.5), "us",
              indexed ? "self time of index_lookup; " +
                            SampleNote(index_us, 0.5)
                      : na);
  report->Set("index.blocks_per_query",
              Ratio(replay.index_blocks, replay.queries), "count",
              "I of Eq 5.7, replay");
  report->Set("index.build_s", r.MedianSetup(&SetupTimes::index_build_s), "s",
              indexed ? "median of setups" : na);
  report->Set("index.bytes_per_data_byte",
              Ratio(static_cast<double>(r.index_blocks),
                    static_cast<double>(r.data_blocks)),
              "ratio",
              "primary + secondary index blocks / data blocks at the end "
              "of the run");

  // avq
  const double t1_us = replay.t1_us;
  const double t3_us =
      std::max(0.0, Ratio(decode_ns / 1e3, decode_blocks) - t1_us);
  report->Set("avq.decode_us_per_block", t3_us, "us",
              "t3: block:decode span mean minus t1, " + Num(decode_blocks) +
                  " blocks");
  report->Set("avq.decode_ns_per_tuple",
              Ratio(t3_us * 1e3 * decode_blocks, tuples_decoded), "ns",
              Num(tuples_decoded) + " tuples decoded");
  report->Set("avq.tuples_decoded_per_match",
              Ratio(replay.decoded, replay.matched), "ratio", "replay");
  report->Set("avq.bulk_load_s", r.MedianSetup(&SetupTimes::bulk_load_s), "s",
              "median of setups");
  report->Set("avq.encode_blocks_per_op",
              Ratio(static_cast<double>(
                        CounterDelta(ww.before, ww.after, obs::kEncodeBlocks)),
                    acked),
              "ratio", src + "avq.encode.blocks delta");

  // storage
  const double n_blocks = Ratio(replay.data_blocks, replay.queries);
  report->Set("storage.blocks_per_query", n_blocks, "count",
              "N of Eq 5.7, replay");
  report->Set("storage.fetch_us_per_block", t1_us, "us",
              "t1: Pager::Read over every data block, 5 passes");
  Samples fsync_ms = ww.fsync_ms;
  report->Set("storage.wal.fsync_ms.p50", fsync_ms.Percentile(0.5), "ms",
              src + SampleNote(fsync_ms, 0.5));
  report->Set("storage.wal.fsync_ms.p99", fsync_ms.Percentile(0.99), "ms",
              src + SampleNote(fsync_ms, 0.99));
  report->Set("storage.wal.bytes_per_op",
              Ratio(static_cast<double>(ww.wal_after.bytes -
                                        ww.wal_before.bytes),
                    acked),
              "B/op", src + "WAL device bytes written");
  report->Set("storage.write_amp",
              Ratio(static_cast<double>(CounterDelta(
                        ww.before, ww.after, obs::kDeviceBytesWritten)),
                    acked * static_cast<double>(r.tuple_bytes)),
              "ratio", src + "storage.device.bytes_written / user bytes");

  // The ledger: means in ms over the ledger set, so that client spans,
  // server spans, the journal's split and the replay describe the same
  // requests.
  struct Sums {
    double rtt = 0, client_send = 0, queue = 0, exec = 0, server_send = 0,
           admission = 0, select = 0, plan = 0, index = 0, fetch = 0,
           decode = 0, filter = 0;
  } sum;
  for (const auto& [index, rec] : r.ledger_set) {
    const TracedQuery& t = r.traced.traced[index];
    const ServerSpans& s = t.server;
    const double fetch_ns = static_cast<double>(s.decode_blocks) * t1_us * 1e3;
    sum.rtt += t.rtt_ns;
    sum.client_send += t.send_ns;
    sum.queue += static_cast<double>(rec.queue_us) * 1e3;
    sum.exec += static_cast<double>(rec.exec_us) * 1e3;
    sum.server_send += static_cast<double>(rec.send_us) * 1e3;
    sum.admission += s.admission_ns;
    sum.select += s.select_ns;
    sum.plan += s.plan_ns;
    sum.index += s.index_ns;
    sum.fetch += fetch_ns;
    sum.decode += s.decode_ns - fetch_ns;
    sum.filter += s.scan_self_ns;
  }
  const double per = 1e6 * std::max<double>(1, r.ledger_set.size());
  auto mean_ms = [&](double total_ns) { return total_ns / per; };
  const double rtt_ms = mean_ms(sum.rtt);
  const double unattributed =
      mean_ms(sum.rtt - sum.client_send - sum.queue - sum.exec -
              sum.server_send);
  const double index_ms = mean_ms(sum.index);
  const double eq57 = index_ms + n_blocks * (t1_us + t3_us) / 1e3;
  const std::string over =
      "over the " + std::to_string(r.ledger_set.size()) +
      " traced queries the journal tail covers";
  report->Set("ledger.select_ms.mean", mean_ms(sum.select), "ms",
              "select span, " + over);
  report->Set("ledger.eq57_predicted_ms", eq57, "ms",
              "I + N(t1 + t3) = " + Num(index_ms) + " + " + Num(n_blocks) +
                  " x (" + Num(t1_us / 1e3) + " + " + Num(t3_us / 1e3) +
                  "), " + over);
  report->Set("ledger.unattributed_pct", Ratio(100.0 * unattributed, rtt_ms),
              "%", "client rtt no span or server timer covers, " + over);
  const double untraced_p50 = r.measured.query_ms.All().Percentile(0.5);
  report->Set("obs.trace_overhead_pct",
              Ratio(100.0 * (rtt.Percentile(0.5) - untraced_p50),
                    untraced_p50),
              "%", "traced vs untraced query p50");

  std::vector<std::string> ledger;
  auto row = [&](const char* name, double ms, const char* source) {
    char line[256];
    std::snprintf(line, sizeof line, "ledger  %-28s %12.4f ms %6.1f%%  %s",
                  name, ms, Ratio(100.0 * ms, rtt_ms), source);
    ledger.push_back(line);
  };
  row("client rtt", rtt_ms, "benchmark span SendQuery->ReadResponse");
  row("  client send", mean_ms(sum.client_send),
      "benchmark span around SendQuery");
  row("  server queue", mean_ms(sum.queue), "journal queue_us (STATS)");
  row("  server exec", mean_ms(sum.exec), "journal exec_us (STATS)");
  row("    db admission", mean_ms(sum.admission), "server span admission");
  row("    db select", mean_ms(sum.select), "server span select");
  row("      plan", mean_ms(sum.plan), "server span plan");
  row("      I: index lookup", index_ms, "server span index_lookup (self)");
  row("      N x t1: block fetch", mean_ms(sum.fetch),
      "block:decode spans x t1");
  row("      N x t3: block decode", mean_ms(sum.decode),
      "block:decode spans minus N x t1");
  row("      filter+materialize", mean_ms(sum.filter),
      "server span scan:* (self)");
  row("    outside the spans",
      mean_ms(sum.exec - sum.admission - sum.select),
      "exec - admission - select: snapshot lock and merge, trace setup");
  row("  server send", mean_ms(sum.server_send), "journal send_us (STATS)");
  row("  unattributed", unattributed, "rtt minus every row above");
  row("Eq 5.7 I + N(t1 + t3)", eq57,
      "prediction from replay N, beside db select");
  return ledger;
}

std::string RunRecord(const Args& args, const Host& host, const Results& r) {
  const Workload& w = *args.workload;
  const WriteAheadTableOptions wal_defaults;
  const uint64_t compressed = r.data_blocks * kBlockSize;
  std::string out = "{";
  out += "\"workload\":" + JsonString(w.name);
  out += ",\"why\":" + JsonString(w.why);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"host\":{\"nproc\":" + std::to_string(host.nproc) +
         ",\"cpu\":" + JsonString(host.cpu) +
         ",\"l2_bytes\":" + std::to_string(host.l2_bytes) + "}";
  out += ",\"decode_kernel\":" + JsonString(SelectedDecodeKernel().name());
  out += ",\"tuples\":" + std::to_string(kTuples);
  out += ",\"uncoded_tuple_bytes\":" + std::to_string(r.tuple_bytes);
  out += ",\"compressed_bytes\":" + std::to_string(compressed);
  out += ",\"stored_bytes\":" + std::to_string(r.stored_bytes());
  out += ",\"compressed_over_l2\":" +
         Num(Ratio(static_cast<double>(compressed),
                   static_cast<double>(host.l2_bytes)));
  out += ",\"stored_over_l2\":" +
         Num(Ratio(static_cast<double>(r.stored_bytes()),
                   static_cast<double>(host.l2_bytes)));
  out += ",\"connections\":{\"readers\":" + std::to_string(w.readers) +
         ",\"writers\":" + std::to_string(w.writers) +
         "},\"loop\":\"closed, pipeline depth 1\"";
  out += ",\"admission_slots\":" + std::to_string(w.readers + w.writers);
  out += ",\"wal_flush_policy\":" +
         JsonString("FileBlockDevice fdatasync per group commit; "
                    "WriteAheadTableOptions defaults: max_unapplied_batches=" +
                    std::to_string(wal_defaults.max_unapplied_batches) +
                    " apply_chunk_batches=" +
                    std::to_string(wal_defaults.apply_chunk_batches) +
                    " max_group_batches=" +
                    std::to_string(wal_defaults.max_group_batches) +
                    " (0 = unbounded)");
  out += ",\"samples\":{\"query\":" + std::to_string(r.measured.query_ms.size()) +
         ",\"mutate\":" +
         std::to_string(WritesOf(args, r).tally.mutate_ms.size()) +
         ",\"traced_query\":" + std::to_string(r.traced.traced.size()) +
         ",\"ledger\":" + std::to_string(r.ledger_set.size()) + "}";
  return out + "}";
}

// The benchmark's own spans, kept in memory until the run ends.
void WriteSpans(const Args& args, const Tally& traced) {
  const std::string path = args.work_dir + "/spans-" + args.workload->name +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  std::ofstream spans(path, std::ios::trunc);
  for (const TracedQuery& t : traced.traced) {
    const ServerSpans& s = t.server;
    spans << "{\"conn\":" << t.conn << ",\"start_ns\":" << t.start_ns
          << ",\"rtt_ns\":" << Num(t.rtt_ns)
          << ",\"client_send_ns\":" << Num(t.send_ns)
          << ",\"admission_ns\":" << Num(s.admission_ns)
          << ",\"select_ns\":" << Num(s.select_ns)
          << ",\"plan_ns\":" << Num(s.plan_ns)
          << ",\"index_lookup_ns\":" << Num(s.index_ns)
          << ",\"scan_self_ns\":" << Num(s.scan_self_ns)
          << ",\"decode_ns\":" << Num(s.decode_ns)
          << ",\"decode_blocks\":" << s.decode_blocks
          << ",\"tuples\":" << t.tuples
          << ",\"dropped_spans\":" << s.dropped << "}\n";
  }
  std::printf("spans_written %s (%zu requests)\n", path.c_str(),
              traced.traced.size());
}

// Registry counter deltas across the write stream.
std::string CounterDeltas(const Window& ww) {
  std::string out = "{";
  for (const auto& c : ww.after.counters) {
    const std::string_view name = c.name;
    if (name.rfind("db.write.", 0) != 0 && name.rfind("wal.", 0) != 0 &&
        name.rfind("avq.encode.", 0) != 0) {
      continue;
    }
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":" +
           std::to_string(CounterDelta(ww.before, ww.after, name));
  }
  return out + "}";
}

// ---------------------------------------------------------------- main

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::filesystem::create_directories(args.work_dir);
  const Host host = DescribeHost();
  Results r;

  // Inputs, all from the seed. The program only ever sees these tuples.
  Result<GeneratedRelation> generated =
      GenerateRelation(PaperQueryRelationSpec(kTuples + kPool, args.seed));
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const SchemaPtr schema = generated->schema;
  r.tuple_bytes = schema->tuple_width();
  Oracle oracle(&generated->tuples, kTuples);
  Random input_rng(args.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<RangeCase> ranges;
  if (w.read == ReadKind::kRange) {
    ranges = MakeRangeCases(oracle, *schema, input_rng);
  }
  // ingest_mixed's reader also draws pool keys, the keys writers change.
  const size_t key_space = w.writers > 0 ? kTuples + kPool : kTuples;
  const std::vector<uint64_t> key_of_rank = ShuffledKeys(key_space, input_rng);
  const ZipfSampler zipf(key_space, kZipfExponent);
  if (args.corrupt_oracle) {
    for (RangeCase& c : ranges) c.digest ^= 1;
    oracle.CorruptPointReference(key_of_rank[0]);
  }

  // Setup, repeated so its median is steady; the last instance serves.
  const std::string wal_base =
      args.work_dir + "/wal-" + std::to_string(getpid()) + "-";
  std::unique_ptr<Served> served;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    served.reset();
    std::vector<OrdinalTuple> handed(
        generated->tuples.begin(),
        generated->tuples.begin() + static_cast<ptrdiff_t>(kTuples));
    SetupTimes times;
    Result<std::unique_ptr<Served>> s =
        SetUp(w, schema, std::move(handed),
              wal_base + std::to_string(i) + ".log", &times);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 1;
    }
    served = std::move(*s);
    r.setups.push_back(times);
  }

  // Connections: readers first, then writers.
  const size_t nconns = w.readers + w.writers;
  std::vector<Connection> conns(nconns);
  std::vector<Role> roles(nconns, Role::kReader);
  for (size_t i = 0; i < nconns; ++i) {
    Result<std::unique_ptr<server::Client>> c =
        server::Client::Connect("127.0.0.1", served->server->port());
    if (!c.ok()) {
      std::fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
      return 1;
    }
    conns[i].client = std::move(*c);
    conns[i].rng = Random(args.seed * 1000003 + i);
    conns[i].next_id = (uint64_t{i} + 1) << 32;
  }
  for (size_t i = 0; i < w.writers; ++i) {
    roles[w.readers + i] = Role::kWriter;
    conns[w.readers + i].writer = MakeWriter(i, w.writers);
  }
  Shared sh;
  sh.oracle = &oracle;
  sh.ranges = &ranges;
  sh.zipf = &zipf;
  sh.key_of_rank = &key_of_rank;
  sh.key_attr = schema->num_attributes() - 1;

  // Warm-up: caches fill and the first inserts' block splits finish
  // before anything counts.
  const double warm_s = std::min(kWarmupSeconds, 0.2 * args.seconds);
  RunPhase(conns, roles, w.read, sh, PhasePlan{warm_s, false, false});

  // Measured, untraced: the end-to-end numbers.
  std::vector<OpLog> logs =
      RunWatched(*served, conns, roles, w.read, sh,
                 PhasePlan{args.seconds, false, true}, &r.measured_window);
  r.measured = Merge(logs);

  // Traced: same workload, seed and connections; every QUERY traced.
  if (args.trace && !sh.abort.load()) {
    logs = RunWatched(*served, conns, roles, w.read, sh,
                      PhasePlan{args.seconds, true, true}, &r.traced_window);
    r.traced = Merge(logs);
    // The journal keeps the server's queue/exec/send split for the most
    // recent queries; request ids are unique across connections, so each
    // record finds its traced query.
    Result<server::Client::StatsResult> tail =
        conns[0].client->FetchStats(server::kStatsSectionJournal);
    if (!tail.ok()) sh.Fail(&sh.fatal, tail.status());
    if (tail.ok()) {
      std::map<uint64_t, size_t> by_id;
      for (size_t i = 0; i < r.traced.traced.size(); ++i) {
        by_id[r.traced.traced[i].request_id] = i;
      }
      for (const auto& rec : tail->journal) {
        auto it = by_id.find(rec.request_id);
        if (it != by_id.end()) r.ledger_set.emplace_back(it->second, rec);
      }
    }
  }

  // The replay reads the base table directly, so it runs while nothing
  // mutates it: before the probe on the read-only workloads, after the
  // final Flush on ingest_mixed.
  auto run_replay = [&] {
    if (!args.trace || sh.abort.load()) return;
    std::vector<size_t> which;
    for (const auto& [index, rec] : r.ledger_set) which.push_back(index);
    Result<ReplayStats> replay =
        Replay(*served->table(), r.traced.traced, which);
    if (!replay.ok()) sh.Fail(&sh.fatal, replay.status());
    if (replay.ok()) r.replay = *replay;
  };

  // End of the run: the storage footprint, then the durable-write check.
  if (!sh.abort.load()) {
    WriteAheadTable* ingest = served->ingest();
    if (ingest != nullptr) {
      // Let the applier drain so the footprint is a quiescent one.
      const auto give_up = Clock::now() + std::chrono::seconds(60);
      while (ingest->applied_seq() < ingest->durable_seq() &&
             Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      r.wal_bytes_live = served->wal->allocated_blocks() * kBlockSize;
    }
    Table* table = served->table();
    r.data_blocks = table->DataBlockCount();
    r.index_blocks = table->IndexBlockCount();
    r.final_tuples = table->num_tuples();

    if (ingest == nullptr) {
      run_replay();
      // Read-only workloads: once every reader has stopped, attach a WAL
      // and run ingest_mixed's writers with no reader beside them — the
      // control for ingest_mixed's write latencies.
      Status enabled = served->EnableWal(wal_base + "probe.log");
      if (!enabled.ok()) {
        sh.Fail(&sh.fatal, enabled);
      } else {
        std::vector<Role> probe_roles(nconns, Role::kIdle);
        for (size_t i = 0; i < kProbeWriters; ++i) {
          conns[i].writer = MakeWriter(i, kProbeWriters);
          probe_roles[i] = Role::kWriter;
        }
        RunPhase(conns, probe_roles, w.read, sh,
                 PhasePlan{warm_s, false, false});
        r.probe_seconds = kProbeShare * args.seconds;
        logs = RunWatched(*served, conns, probe_roles, w.read, sh,
                          PhasePlan{r.probe_seconds, false, true},
                          &r.probe_window);
        r.probe = Merge(logs);
      }
    }
    if (!sh.abort.load()) {
      server::FlushRequest flush;
      flush.table = kTable;
      Result<server::Client::MutateOutcome> flushed =
          conns[0].client->FlushCall(flush);
      if (!flushed.ok() || !flushed->status.ok()) {
        sh.Fail(&sh.fatal,
                flushed.ok() ? flushed->status : flushed.status());
      } else {
        std::vector<size_t> live_pool;
        for (const Connection& c : conns) {
          if (c.writer) {
            live_pool.insert(live_pool.end(), c.writer->live.begin(),
                             c.writer->live.end());
          }
        }
        Result<std::vector<OrdinalTuple>> all = served->table()->ScanAll();
        const Status final_check =
            all.ok() ? oracle.CheckFinal(live_pool, *all) : all.status();
        if (!final_check.ok()) sh.Fail(&sh.wrong, final_check);
      }
    }
    if (ingest != nullptr) run_replay();
  }

  // Report.
  Report report;
  ReportEndToEnd(args, r, &report);
  std::vector<std::string> ledger;
  if (args.trace) ledger = ReportLayers(args, r, &report);

  std::printf("wirebench workload=%s seed=%llu seconds=%s trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("run_record %s\n", RunRecord(args, host, r).c_str());
  auto print_end_to_end = [&](const char* name, const char* gate) {
    const MetricValue& v = report.Get(name);
    std::printf("end_to_end %-28s %14s %-6s %s%s\n", name,
                Num(v.value).c_str(), v.unit.c_str(), gate,
                report.Note(name).c_str());
  };
  for (const char* name : kEndToEnd) print_end_to_end(name, "");
  for (const char* name : kReportedOnly) {
    print_end_to_end(name, "[not gated] ");
  }
  if (args.trace) {
    for (const std::string& line : ledger) std::printf("%s\n", line.c_str());
    for (const LayerSpec& l : kLayers) {
      const MetricValue& v = report.Get(l.name);
      std::printf("per_layer %-36s %14s %-7s -> %s  [%s]\n", l.name,
                  Num(v.value).c_str(), l.unit, l.moves,
                  report.Note(l.name).c_str());
    }
    std::printf("counter_deltas %s\n",
                CounterDeltas(WritesOf(args, r).window).c_str());
    WriteSpans(args, r.traced);
  }
  if (!sh.wrong.ok()) {
    std::printf("WRONG ANSWER: %s\n", sh.wrong.ToString().c_str());
  }
  if (!sh.fatal.ok()) std::printf("FAILED: %s\n", sh.fatal.ToString().c_str());

  std::string metrics;
  auto emit = [&](const char* name) {
    const MetricValue& v = report.Get(name);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Num(v.value) +
               ", \"unit\": " + JsonString(v.unit) + "}";
  };
  if (args.trace) {
    for (const LayerSpec& l : kLayers) emit(l.name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  const uint64_t attempted = r.measured.queries + r.measured.mutations +
                             r.probe.mutations;
  const uint64_t failed =
      r.measured.failed + r.probe.failed + (sh.fatal.ok() ? 0 : 1);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      sh.wrong.ok() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);

  for (Connection& c : conns) (void)c.client->SendGoodbye();
  served.reset();
  return sh.wrong.ok() && sh.fatal.ok() ? 0 : 1;
}

}  // namespace
}  // namespace avqdb::wirebench

int main(int argc, char** argv) { return avqdb::wirebench::Main(argc, argv); }
