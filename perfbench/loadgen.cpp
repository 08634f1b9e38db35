#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/base64.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The string value of `"key":"..."` in a flat JSON object, or empty.
std::string json_string_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = body.find('"', begin);
  if (end == std::string::npos) return {};
  return body.substr(begin, end - begin);
}

/// The numeric value of `"key":<number>` in a flat JSON object, or -1.
double json_number_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1.0;
  const char* begin = body.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  return end == begin ? -1.0 : v;
}

}  // namespace

std::vector<double> run_closed(int clients, double seconds,
                               std::size_t first_request, const SendFn& send) {
  std::atomic<std::size_t> next{first_request};
  std::vector<std::vector<double>> times(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const Outcome out = send(c, next.fetch_add(1));
        const double t =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (t >= seconds) return;  // replies after the phase are not counted
        if (out.ok && !out.wrong) {
          times[static_cast<std::size_t>(c)].push_back(t);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const std::vector<double>& v : times) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

double completion_rate(const std::vector<double>& times_s) {
  if (times_s.size() < 2 || times_s.back() <= times_s.front()) return 0.0;
  return static_cast<double>(times_s.size() - 1) /
         (times_s.back() - times_s.front());
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     int count) {
  // Stratified exponential gaps: gap i is the inverse-CDF image of a
  // uniform drawn inside stratum perm[i] of `count` equal strata, with the
  // stratum order a seeded permutation. Each gap is still exponential and
  // the order of short and long gaps is random, but every schedule holds
  // the same spread of gap lengths, so the tail latency measures the
  // server rather than how bursty one seed's draw happened to be. 53-bit
  // uniforms and a hand-rolled shuffle give the same schedule with any
  // standard library.
  std::mt19937_64 gen(seed ^ 0x9e3779b97f4a7c15ull);
  const auto uniform = [&gen] {
    return static_cast<double>(gen() >> 11) * 0x1.0p-53;
  };
  const auto n = static_cast<std::size_t>(count);
  std::vector<std::size_t> stratum(n);
  for (std::size_t i = 0; i < n; ++i) stratum[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform() * static_cast<double>(i));
    std::swap(stratum[i - 1], stratum[std::min(j, i - 1)]);
  }
  std::vector<double> due;
  due.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        (static_cast<double>(stratum[i]) + uniform()) / static_cast<double>(n);
    t += -std::log1p(-std::min(u, 1.0 - 0x1.0p-53)) / rate;
    due.push_back(t);
  }
  return due;
}

std::vector<OpenSample> run_open(int clients, const std::vector<double>& due_s,
                                 std::size_t first_request,
                                 const SendFn& send) {
  std::vector<OpenSample> samples(due_s.size());
  std::atomic<std::size_t> next{0};
  // A short lead so every client thread is parked before the first due
  // time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Clock::time_point free_at = start;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= due_s.size()) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        OpenSample& s = samples[i];
        s.out = send(c, first_request + i);
        const Clock::time_point done = Clock::now();
        s.late_ms = ms_between(due, sent);
        s.lag_ms = ms_between(std::max(due, free_at), sent);
        s.rtt_ms = ms_between(sent, done);
        s.latency_ms = ms_between(due, done);
        free_at = done;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

InferClient::InferClient(int port)
    : client_("127.0.0.1", port, std::chrono::milliseconds(30000)) {}

InferClient::Reply InferClient::post(const std::string& target,
                                     const std::string& body) {
  Reply reply;
  yoloc::HttpResponse resp;
  try {
    resp = client_.post(target, body, "application/octet-stream");
  } catch (const std::exception&) {
    client_.close();
    return reply;  // status 0: transport error
  }
  reply.status = resp.status;
  reply.body_bytes = resp.body.size();
  if (resp.status != 200) return reply;
  std::vector<std::uint8_t> bytes;
  if (!yoloc::base64_decode(json_string_field(resp.body, "data_b64"), bytes) ||
      bytes.empty() || bytes.size() % sizeof(float) != 0) {
    reply.status = 0;
    return reply;
  }
  reply.logits.resize(bytes.size() / sizeof(float));
  std::memcpy(reply.logits.data(), bytes.data(), bytes.size());
  reply.server_ms = json_number_field(resp.body, "latency_ms");
  return reply;
}

}  // namespace perfbench
