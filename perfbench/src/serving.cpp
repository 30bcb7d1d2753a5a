// The HTTP serving phase: an in-process ReptileService behind a
// ReactorServer on loopback, two closed-loop keep-alive reader clients on
// sessions pinned to version 1, and one paced writer appending batches and
// asking the head for an answer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.h"
#include "net/reactor_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/service.h"
#include "shape.h"

namespace perfbench {
namespace {

using reptile::HttpClient;
using reptile::HttpClientResponse;
using reptile::JsonQuote;

constexpr int kReaders = 2;
constexpr int kHandlerThreads = 3;
constexpr size_t kMinRecommendsPerReader = 60;

/// Server-Timing stages summed over traced requests (milliseconds).
struct ServerStages {
  double parse = 0.0;
  double serialize = 0.0;
  double total = 0.0;
  double transport = 0.0;
  double bytes = 0.0;
  double group_stats = 0.0;
  int64_t requests = 0;
};

/// Every span duration of a Server-Timing header, by name (ms).
std::map<std::string, double> ParseServerTiming(const std::string& header) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < header.size()) {
    size_t end = header.find(", ", pos);
    if (end == std::string::npos) end = header.size();
    const std::string entry = header.substr(pos, end - pos);
    const size_t dur = entry.find("dur=");
    if (dur != std::string::npos) {
      out[entry.substr(0, entry.find(';'))] += std::strtod(entry.c_str() + dur + 4, nullptr);
    }
    pos = end + 2;
  }
  return out;
}

/// Replaces the number after every `"key":` with 0, so bodies rendered with
/// and without zero_timings compare equal.
std::string ZeroField(std::string body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    const size_t start = pos + needle.size();
    size_t end = start;
    while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
    body.replace(start, end - start, "0");
    pos = start;
  }
  return body;
}

std::string Normalized(const std::string& body) {
  return ZeroField(ZeroField(body, "train_seconds"), "total_seconds");
}

double SumField(const reptile::JsonValue& value, const std::string& key) {
  double sum = 0.0;
  if (value.is_object()) {
    for (const auto& [name, item] : value.object_items()) {
      if (name == key && item.is_number()) sum += item.number_value();
      sum += SumField(item, key);
    }
  } else if (value.is_array()) {
    for (const reptile::JsonValue& item : value.array_items()) sum += SumField(item, key);
  }
  return sum;
}

HttpClientResponse Call(HttpClient& client, const std::string& method, const std::string& path,
                        const std::string& body, int want_status) {
  reptile::Result<HttpClientResponse> response =
      method == "POST" ? client.Post(path, body)
                       : method == "DELETE" ? client.Delete(path) : client.Get(path);
  if (!response.ok()) Die(method + " " + path + ": " + response.status().ToString());
  if (response->status != want_status) {
    Die(method + " " + path + " answered " + std::to_string(response->status) + ": " +
        response->body);
  }
  return std::move(response).value();
}

std::string CommittedJson(const std::map<std::string, int>& committed) {
  std::string out = "{";
  for (const auto& [name, depth] : committed) {
    if (out.size() > 1) out += ',';
    out += JsonQuote(name) + ":" + std::to_string(depth);
  }
  return out + "}";
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) out += (out.size() > 1 ? "," : "") + JsonQuote(item);
  return out + "]";
}

std::string UploadJson(const Shape& shape) {
  std::string hierarchies = "[";
  for (const reptile::HierarchySchema& h : shape.hierarchies) {
    if (hierarchies.size() > 1) hierarchies += ',';
    hierarchies += "{\"name\":" + JsonQuote(h.name) +
                   ",\"attributes\":" + StringList(h.attributes) + "}";
  }
  hierarchies += "]";
  std::vector<std::string> commits;
  for (const auto& [name, depth] : shape.reader_state) {
    for (int i = 0; i < depth; ++i) commits.push_back(name);
  }
  return "{\"name\":" + JsonQuote(shape.name) + ",\"csv\":" + JsonQuote(shape.csv) +
         ",\"dimensions\":" + StringList(shape.spec.dimension_columns) +
         ",\"measures\":" + StringList(shape.spec.measure_columns) +
         ",\"hierarchies\":" + hierarchies + ",\"commits\":" + StringList(commits) + "}";
}

/// The bodies a correct server returns to the readers, from an in-process
/// Session over a cold build of the version-1 bytes.
struct Expected {
  std::vector<std::string> recommend;       // per reader complaint
  std::vector<std::string> view;            // per reader view
  std::vector<std::string> cycle_after;     // per complaint, after the cycle commit
  std::string commit;
};

reptile::Session OpenAt(const Shape& shape, const reptile::DatasetHandle& handle) {
  reptile::Result<reptile::Session> session =
      reptile::Session::Open(handle, reptile::ExploreRequest().Threads(1));
  if (!session.ok()) Die("session open: " + session.status().ToString());
  reptile::Status restored = session->RestoreCommitted(shape.reader_state);
  if (!restored.ok()) Die("restore: " + restored.ToString());
  return std::move(session).value();
}

std::string RecommendJson(reptile::Session& session, const reptile::ComplaintSpec& complaint) {
  reptile::Result<reptile::ExploreResponse> response = session.Recommend(complaint);
  if (!response.ok()) Die("recommend: " + response.status().ToString());
  return ZeroedJson(std::move(response).value());
}

Expected ExpectedBodies(const Shape& shape) {
  reptile::Result<reptile::DatasetHandle> handle =
      reptile::PreparedDataset::Prepare(ParseDataset(shape, shape.csv));
  if (!handle.ok()) Die("prepare: " + handle.status().ToString());
  Expected expected;
  reptile::Session reader = OpenAt(shape, *handle);
  for (const reptile::ComplaintSpec& complaint : shape.reader_complaints) {
    expected.recommend.push_back(RecommendJson(reader, complaint));
  }
  for (const reptile::ViewRequest& view : shape.reader_views) {
    reptile::Result<reptile::ViewResponse> response = reader.View(view);
    if (!response.ok()) Die("view: " + response.status().ToString());
    expected.view.push_back(response->ToJson());
  }
  for (const reptile::ComplaintSpec& complaint : shape.reader_complaints) {
    reptile::Session cycle = OpenAt(shape, *handle);
    reptile::Status committed = cycle.Commit(shape.cycle_commit);
    if (!committed.ok()) Die("commit: " + committed.ToString());
    expected.cycle_after.push_back(RecommendJson(cycle, complaint));
    if (expected.commit.empty()) {
      const int depth = cycle.DrillDepth(shape.cycle_commit).value();
      const bool can_drill = cycle.CanDrill(shape.cycle_commit).value();
      expected.commit = "{\"hierarchy\":" + JsonQuote(shape.cycle_commit) +
                        ",\"depth\":" + std::to_string(depth) +
                        ",\"can_drill\":" + (can_drill ? "true" : "false") + "}";
    }
  }
  return expected;
}

/// One reader client: a long-lived pinned session plus whole rounds of the
/// op mix until told to stop.
class Reader {
 public:
  Reader(const Shape& shape, const Expected& expected, int port, bool traced)
      : shape_(shape), expected_(expected), client_("127.0.0.1", port), traced_(traced) {}

  /// Opens the long-lived session pinned to version 1.
  void Open() { session_ = CreateSession(); }

  /// One round: every reader complaint, every view, one session cycle.
  void Round() {
    const size_t n = shape_.reader_complaints.size();
    for (size_t k = 0; k < n; ++k) Recommend(session_, k, expected_.recommend[k]);
    for (size_t v = 0; v < shape_.reader_views.size(); ++v) {
      HttpClientResponse response = Call(
          client_, "POST", "/v1/view",
          "{\"session\":" + JsonQuote(session_) + "," + ViewJson(shape_.reader_views[v]).substr(1),
          200);
      Expect(response.body == expected_.view[v], "view body");
      ++ops_;
    }
    const size_t k = static_cast<size_t>(rounds_) % n;
    const std::string cycle = CreateSession();
    Recommend(cycle, k, expected_.recommend[k]);
    HttpClientResponse committed =
        Call(client_, "POST", "/v1/commit",
             "{\"session\":" + JsonQuote(cycle) + ",\"hierarchy\":" +
                 JsonQuote(shape_.cycle_commit) + "}",
             200);
    Expect(committed.body == expected_.commit, "commit body");
    ++ops_;
    Recommend(cycle, k, expected_.cycle_after[k]);
    Call(client_, "DELETE", "/v1/sessions/" + cycle, "", 200);
    ++ops_;
    ++rounds_;
  }

  /// Forgets the figures of the set-up (session open, warm-up pass).
  void ResetStats() {
    ops_ = 0;
    rounds_ = 0;
    latencies_ms_.clear();
    stages_ = ServerStages();
  }

  int64_t ops() const { return ops_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const ServerStages& stages() const { return stages_; }

 private:
  std::string CreateSession() {
    HttpClientResponse response =
        Call(client_, "POST", "/v1/sessions",
             "{\"dataset\":" + JsonQuote(shape_.name + "@v1") +
                 ",\"committed\":" + CommittedJson(shape_.reader_state) + "}",
             201);
    reptile::Result<reptile::JsonValue> parsed = reptile::ParseJson(response.body);
    const reptile::JsonValue* id = parsed.ok() ? parsed->Find("session") : nullptr;
    if (id == nullptr || !id->is_string()) Die("session create answered " + response.body);
    ++ops_;
    return id->string_value();
  }

  void Recommend(const std::string& session, size_t k, const std::string& expected) {
    const std::string body = "{\"session\":" + JsonQuote(session) + ",\"complaint\":" +
                             ComplaintJson(shape_.reader_complaints[k]) +
                             (traced_ ? "}" : ",\"options\":{\"zero_timings\":true}}");
    const double start = NowSeconds();
    HttpClientResponse response = Call(client_, "POST", "/v1/recommend", body, 200);
    const double ms = 1e3 * (NowSeconds() - start);
    latencies_ms_.push_back(ms);
    ++ops_;
    if (!traced_) {
      Expect(response.body == expected, "recommend body");
      return;
    }
    Expect(Normalized(response.body) == Normalized(expected), "recommend body");
    const std::string* timing = response.FindHeader("server-timing");
    if (timing == nullptr) Die("recommend response has no Server-Timing header");
    std::map<std::string, double> spans = ParseServerTiming(*timing);
    reptile::Result<reptile::JsonValue> parsed = reptile::ParseJson(response.body);
    if (!parsed.ok()) Die("recommend body is not JSON");
    stages_.parse += spans["parse"];
    stages_.serialize += spans["serialize"];
    stages_.total += spans["total"];
    stages_.transport += ms - spans["total"];
    stages_.bytes += static_cast<double>(response.body.size());
    stages_.group_stats += spans["fit"] - 1e3 * SumField(*parsed, "train_seconds");
    stages_.requests += 1;
  }

  void Expect(bool ok, const char* what) {
    if (!ok && !mismatch_reported_) {
      mismatch_reported_ = true;
      CheckFailed(std::string("reader ") + what + " differs from the in-process session");
    }
  }

  const Shape& shape_;
  const Expected& expected_;
  HttpClient client_;
  const bool traced_;
  std::string session_;
  int64_t ops_ = 0;
  int64_t rounds_ = 0;
  bool mismatch_reported_ = false;
  std::vector<double> latencies_ms_;
  ServerStages stages_;
};

/// The writer's record of one append cycle.
struct Cycle {
  double append_to_answer_ms = 0.0;
  double append_total_ms = 0.0;  // Server-Timing total of the append
  std::string head_body;
};

Cycle WriterCycle(const Shape& shape, HttpClient& client, int cycle, bool traced,
                  size_t base_rows) {
  Cycle out;
  const std::string recommend =
      "{\"dataset\":" + JsonQuote(shape.name) +
      ",\"complaint\":" + ComplaintJson(shape.reader_complaints.front()) +
      ",\"options\":{\"zero_timings\":true}}";
  const double start = NowSeconds();
  HttpClientResponse appended =
      Call(client, "POST", "/v1/datasets/" + shape.name + "/rows",
           "{\"csv\":" + JsonQuote(shape.append_batch(cycle)) + "}", 201);
  HttpClientResponse head = Call(client, "POST", "/v1/recommend", recommend, 200);
  out.append_to_answer_ms = 1e3 * (NowSeconds() - start);
  out.head_body = std::move(head.body);
  if (traced) {
    const std::string* timing = appended.FindHeader("server-timing");
    if (timing != nullptr) out.append_total_ms = ParseServerTiming(*timing)["total"];
  }

  // The head's COUNT must cover the base rows plus every appended row.
  HttpClientResponse view =
      Call(client, "POST", "/v1/view",
           "{\"dataset\":" + JsonQuote(shape.name) + ",\"group_by\":[" +
               JsonQuote(shape.count_view_column) + "]}",
           200);
  reptile::Result<reptile::JsonValue> parsed = reptile::ParseJson(view.body);
  const reptile::JsonValue* total = parsed.ok() ? parsed->Find("total") : nullptr;
  const reptile::JsonValue* count = total != nullptr ? total->Find("count") : nullptr;
  const double want = static_cast<double>(base_rows) + cycle * shape.append_rows;
  if (count == nullptr || !count->is_number() || count->number_value() != want) {
    CheckFailed("head view after append " + std::to_string(cycle) + " counts " +
                (count != nullptr ? std::to_string(count->number_value()) : "nothing") +
                " rows, want " + std::to_string(want));
  }
  return out;
}

/// Data rows of a CSV text (the header line dropped).
std::string DataRows(const std::string& csv) { return csv.substr(csv.find('\n') + 1); }

}  // namespace

ServingResult RunServing(const Shape& shape, const Args& args, double seconds,
                         Report* report) {
  ServingResult result;
  reptile::ServiceOptions options;
  options.session_defaults = reptile::ExploreRequest().Threads(1);
  auto service = std::make_unique<reptile::ReptileService>(options);
  reptile::ReactorServerOptions server_options;
  server_options.num_threads = kHandlerThreads;
  auto server = std::make_unique<reptile::ReactorServer>(
      server_options, [&service](const reptile::HttpRequest& request) {
        return service->Handle(request);
      });
  reptile::Status started = server->Start();
  if (!started.ok()) Die("server start: " + started.ToString());

  const Expected expected = ExpectedBodies(shape);
  const size_t base_rows =
      static_cast<size_t>(std::count(shape.csv.begin(), shape.csv.end(), '\n')) - 1;

  // Set-up: upload the version-1 bytes, then one warm-up pass of every
  // reader request and of the head recommend.
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Reader>(shape, expected, server->port(), args.trace));
  }
  HttpClient writer_client("127.0.0.1", server->port());
  const double setup_start = NowSeconds();
  Call(writer_client, "POST", "/v1/datasets", UploadJson(shape), 201);
  for (auto& reader : readers) reader->Open();
  readers.front()->Round();
  Call(writer_client, "POST", "/v1/recommend",
       "{\"dataset\":" + JsonQuote(shape.name) + ",\"complaint\":" +
           ComplaintJson(shape.reader_complaints.front()) + "}",
       200);
  result.setup_s = NowSeconds() - setup_start;
  if (args.setup_probe) return result;
  for (auto& reader : readers) reader->ResetStats();

  // Closed-loop readers run whole rounds until the writer is done and the
  // run time is over; the writer's cycles are spread evenly across it.
  std::atomic<bool> stop{false};
  std::vector<double> reader_end(kReaders, 0.0);
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Enough recommends per reader that the p90 has ten samples beyond it.
      while (!stop.load(std::memory_order_acquire) ||
             readers[r]->latencies_ms().size() < kMinRecommendsPerReader) {
        readers[r]->Round();
      }
      reader_end[r] = NowSeconds();
    });
  }
  std::vector<Cycle> cycles;
  const double interval = seconds / shape.writer_cycles;
  for (int cycle = 1; cycle <= shape.writer_cycles; ++cycle) {
    const double due = start + (cycle - 0.5) * interval;
    std::this_thread::sleep_for(std::chrono::duration<double>(std::max(0.0, due - NowSeconds())));
    cycles.push_back(WriterCycle(shape, writer_client, cycle, args.trace, base_rows));
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, start + seconds - NowSeconds())));
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  result.reader_wall_s = *std::max_element(reader_end.begin(), reader_end.end()) - start;

  const int64_t connections = server->connections_accepted();
  const int64_t invalidations = service->registry().cache_invalidations();
  const int64_t versions_gc = service->registry().versions_gc();
  // The server's datasets go before the cold builds below are made.
  server.reset();
  service.reset();

  // Every head answer must equal a cold build of the concatenated bytes.
  std::string concatenated = shape.csv;
  for (int cycle = 1; cycle <= shape.writer_cycles; ++cycle) {
    concatenated += DataRows(shape.append_batch(cycle));
    reptile::Result<reptile::DatasetHandle> cold =
        reptile::PreparedDataset::Prepare(ParseDataset(shape, concatenated));
    if (!cold.ok()) Die("prepare: " + cold.status().ToString());
    reptile::Session session = OpenAt(shape, *cold);
    if (RecommendJson(session, shape.reader_complaints.front()) !=
        cycles[static_cast<size_t>(cycle - 1)].head_body) {
      CheckFailed("head recommend after append " + std::to_string(cycle) +
                  " differs from a cold build of the concatenated CSV");
    }
  }

  ServerStages stages;
  for (const auto& reader : readers) {
    result.recommend_ms.insert(result.recommend_ms.end(), reader->latencies_ms().begin(),
                               reader->latencies_ms().end());
    result.reader_ops += reader->ops();
    const ServerStages& s = reader->stages();
    stages.parse += s.parse;
    stages.serialize += s.serialize;
    stages.total += s.total;
    stages.transport += s.transport;
    stages.bytes += s.bytes;
    stages.group_stats += s.group_stats;
    stages.requests += s.requests;
  }
  std::vector<double> append_total_ms;
  for (const Cycle& cycle : cycles) {
    result.append_to_answer_ms.push_back(cycle.append_to_answer_ms);
    append_total_ms.push_back(cycle.append_total_ms);
  }
  // Each writer cycle is three operations: append, head recommend, view.
  result.operations = result.reader_ops + 3 * static_cast<int64_t>(cycles.size());

  if (args.trace) {
    const double n = static_cast<double>(std::max<int64_t>(stages.requests, 1));
    report->Set("server.parse_ms", stages.parse / n, "ms");
    report->Set("server.group_stats_ms", stages.group_stats / n, "ms");
    report->Set("server.serialize_ms", stages.serialize / n, "ms");
    report->Set("server.handle_ms", stages.total / n, "ms");
    report->Set("server.response_bytes", stages.bytes / n, "bytes");
    report->Set("net.transport_ms", stages.transport / n, "ms");
    report->Set("net.connections_accepted", static_cast<double>(connections), "count");
    report->Set("version.append_ms", Mean(append_total_ms), "ms");
    report->Set("version.cache_invalidations",
                static_cast<double>(invalidations) / shape.writer_cycles, "count");
    report->Set("version.versions_gc", static_cast<double>(versions_gc), "count");
  }
  return result;
}

}  // namespace perfbench
