// logsim_client -- command-line client for a running logsimd.
//
//   logsim_client --server HOST:PORT ping
//   logsim_client --server HOST:PORT predict <program-file>
//                 [--params STR] [--seed N] [--deadline-ms N]
//   logsim_client --server HOST:PORT predict --handle N
//                 [--params STR] [--seed N] [--deadline-ms N]
//   logsim_client --server HOST:PORT batch <program-file>...
//                 [--params STR] [--seed N] [--deadline-ms N]
//   logsim_client --server HOST:PORT register <program-file>...
//   logsim_client --server HOST:PORT stats
//
// predict sends one program and prints the prediction; batch sends every
// file as one BATCH frame and prints the streamed per-job results in job
// order.  register interns each file server-side and prints its handle;
// predict --handle N then skips the program upload entirely.  stats dumps
// the server's metrics + span snapshot.  Payloads travel in the wire's
// binary codec, doubles as raw IEEE-754 bits.  Exit code 0 only when every
// job succeeded.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <logsim/serve.hpp>

using namespace logsim;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 4242;
  std::string params_text = "meiko";
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 0;
  std::uint64_t handle = 0;
  std::string command;
  std::vector<std::string> files;
};

void usage() {
  std::cerr << "usage: logsim_client --server HOST:PORT "
               "ping|stats|register <file>...|predict <file>|batch <file>...\n"
               "       [--params STR] [--seed N] [--deadline-ms N]\n"
               "       [--handle N]\n";
}

bool parse_server(const std::string& text, Options* opts) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) return false;
  opts->host = text.substr(0, colon);
  opts->port = static_cast<std::uint16_t>(std::atoi(text.c_str() + colon + 1));
  return opts->port != 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void print_reply(const std::string& label, const serve::PredictReply& reply) {
  std::cout << label << ": total " << reply.total_us << " us (computation "
            << reply.comp_us << ", communication " << reply.comm_us
            << "); worst-case total " << reply.total_worst_us
            << ", communication " << reply.comm_worst_us << "; "
            << (reply.from_cache ? "cache hit" : "simulated") << ", "
            << reply.attempts << " attempt(s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--server" && i + 1 < argc) {
      if (!parse_server(argv[++i], &opts)) {
        std::cerr << "logsim_client: bad --server (want HOST:PORT)\n";
        return 2;
      }
    } else if (arg.rfind("--server=", 0) == 0) {
      if (!parse_server(arg.substr(std::strlen("--server=")), &opts)) {
        std::cerr << "logsim_client: bad --server (want HOST:PORT)\n";
        return 2;
      }
    } else if (arg == "--params" && i + 1 < argc) {
      opts.params_text = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      opts.deadline_ms = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--handle" && i + 1 < argc) {
      opts.handle = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (opts.command.empty()) {
      opts.command = arg;
    } else {
      opts.files.push_back(arg);
    }
  }
  if (opts.command.empty()) {
    usage();
    return 2;
  }

  Result<serve::Client> connected = serve::Client::connect(opts.host, opts.port);
  if (!connected.ok()) {
    std::cerr << "logsim_client: " << connected.status().to_string() << '\n';
    return 1;
  }
  serve::Client client = std::move(connected).value();

  if (opts.command == "ping") {
    if (const Status st = client.ping(); !st.ok()) {
      std::cerr << "logsim_client: " << st.to_string() << '\n';
      return 1;
    }
    std::cout << "pong\n";
    return 0;
  }
  if (opts.command == "stats") {
    const Result<std::string> text = client.stats();
    if (!text.ok()) {
      std::cerr << "logsim_client: " << text.status().to_string() << '\n';
      return 1;
    }
    std::cout << *text;
    return 0;
  }

  if (opts.command == "register") {
    if (opts.files.empty()) {
      std::cerr << "logsim_client: register: missing program file\n";
      return 2;
    }
    int failures = 0;
    for (const std::string& path : opts.files) {
      std::string text;
      if (!read_file(path, &text)) {
        std::cerr << "logsim_client: cannot read " << path << '\n';
        return 1;
      }
      const Result<std::uint64_t> handle = client.register_program(text);
      if (!handle.ok()) {
        ++failures;
        std::cerr << path << ": " << handle.status().to_string() << '\n';
        continue;
      }
      std::cout << path << ": handle " << handle.value() << '\n';
    }
    return failures == 0 ? 0 : 1;
  }

  if (opts.command == "predict" && opts.handle != 0) {
    if (!opts.files.empty()) {
      std::cerr << "logsim_client: predict --handle takes no program file\n";
      return 2;
    }
    serve::PredictRequest req;
    req.handle = opts.handle;
    req.params_text = opts.params_text;
    req.seed = opts.seed;
    req.deadline_ms = opts.deadline_ms;
    const Result<serve::PredictReply> reply = client.predict(req);
    if (!reply.ok()) {
      std::cerr << "logsim_client: " << reply.status().to_string() << '\n';
      return 1;
    }
    print_reply("handle " + std::to_string(opts.handle), *reply);
    return 0;
  }

  if (opts.files.empty()) {
    std::cerr << "logsim_client: " << opts.command << ": missing program file\n";
    return 2;
  }
  std::vector<serve::PredictRequest> jobs;
  jobs.reserve(opts.files.size());
  for (const std::string& path : opts.files) {
    serve::PredictRequest req;
    req.params_text = opts.params_text;
    req.seed = opts.seed;
    req.deadline_ms = opts.deadline_ms;
    if (!read_file(path, &req.program_text)) {
      std::cerr << "logsim_client: cannot read " << path << '\n';
      return 1;
    }
    jobs.push_back(std::move(req));
  }

  if (opts.command == "predict") {
    if (jobs.size() != 1) {
      std::cerr << "logsim_client: predict takes exactly one file\n";
      return 2;
    }
    const Result<serve::PredictReply> reply = client.predict(jobs[0]);
    if (!reply.ok()) {
      std::cerr << "logsim_client: " << reply.status().to_string() << '\n';
      return 1;
    }
    print_reply(opts.files[0], *reply);
    return 0;
  }
  if (opts.command == "batch") {
    const auto items = client.predict_batch(jobs);
    if (!items.ok()) {
      std::cerr << "logsim_client: " << items.status().to_string() << '\n';
      return 1;
    }
    int failures = 0;
    for (std::size_t i = 0; i < items->size(); ++i) {
      const serve::Client::BatchItem& item = (*items)[i];
      if (item.ok()) {
        print_reply(opts.files[i], *item.reply);
      } else {
        ++failures;
        std::cerr << opts.files[i] << ": " << item.status.to_string() << '\n';
      }
    }
    return failures == 0 ? 0 : 1;
  }
  usage();
  return 2;
}
