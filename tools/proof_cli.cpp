// proof — the PRoof command-line interface (paper Figure 1).
//
// Accepts a model (zoo id or serialized .pg file) and a platform/backend,
// runs the profiling pipeline and emits the roofline report as text, CSV,
// SVG and/or a self-contained HTML dataviewer page.
//
//   proof list models|platforms|backends
//   proof profile --model resnet50 --platform a100 [--backend trt_sim]
//                 [--dtype fp16] [--batch 128] [--mode auto]
//                 [--gpu-mhz 918] [--mem-mhz 3199] [--layers 20]
//                 [--svg out.svg] [--html out.html] [--csv out.csv]
//   proof peaks   --platform orin_nx16 [--gpu-mhz 510] [--mem-mhz 2133]
//   proof compare --model shufflenetv2_10 --model2 shufflenetv2_10_mod
//                 --platform a100 --batch 2048
//   proof sweep   --model resnet50 --platform a100 [--batches 1,8,64,512]
//   proof inspect --model vit_tiny --platform a100 [--filter MatMul_0]
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <proof/proof.hpp>

namespace {

using namespace proof;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n\n";
  }
  std::cerr <<
      "usage: proof <command> [options]\n"
      "\n"
      "commands:\n"
      "  list models|platforms|backends   enumerate built-in components\n"
      "  profile   profile a model on a platform (see options below)\n"
      "  peaks     run the roofline peak probe on a platform\n"
      "  compare   profile two models/configs and print the delta\n"
      "  sweep     batch-size sweep with optimal-batch selection\n"
      "  sweep-decode  LLM serving sweep: prefill + decode-step grid over\n"
      "            batch size x decode position with per-phase time-based\n"
      "            rooflines (see docs/LLM.md):\n"
      "            --model llama7b|gpt2 (default gpt2) --prefill <S>\n"
      "            --batches <list> --positions <list>\n"
      "            --platform <id>|all (default all: cross-platform summary)\n"
      "            --svg <decode time roofline> --prefill-svg <same, prefill>\n"
      "            --curves <tokens/s-vs-batch chart> --json <report section>\n"
      "  optimize  guarded closed-loop optimization: classify the bottleneck,\n"
      "            propose variants (model/precision/batch/backend/clocks),\n"
      "            measure each, accept only verified improvements:\n"
      "            --objective latency|perf_per_watt (default latency)\n"
      "            --power-budget <W> --noise <frac, default 0.02>\n"
      "            --rounds <n, default 4> --axes <comma list, default all>\n"
      "  inspect   full-stack drill-down: model nodes -> layer -> kernels\n"
      "  summarize print the model-design node table (pre-optimization)\n"
      "  stats     run a profile (or sweep with --batches) and print the\n"
      "            framework's own self-profile: per-stage spans + counters\n"
      "  serve     run the profiling daemon (see docs/SERVE.md):\n"
      "            --listen unix:/path|host:port (default 127.0.0.1:0)\n"
      "            --max-inflight <n> --deadline-s <s> --drain-timeout <s>\n"
      "            --preload <ids|all> --verbose 0|1\n"
      "  client    send one request to a running daemon:\n"
      "            --connect <endpoint> --method ping|stats|shutdown|profile|\n"
      "            analyze|sweep|sweep_decode|optimize plus the options below,\n"
      "            or\n"
      "            a raw --params '<json>'; result JSON goes to stdout\n"
      "\n"
      "options:\n"
      "  --model <id|file.pg>   zoo model id or serialized graph file\n"
      "  --model2 <id|file.pg>  second model (compare)\n"
      "  --platform <id>        a100 rtx4090 xeon6330 xavier_nx orin_nx16\n"
      "                         rpi4b npu3720\n"
      "  --backend <id>         trt_sim ov_sim ort_sim (default: platform's)\n"
      "  --dtype <t>            fp32 fp16 bf16 int8 (default fp16/fp32)\n"
      "  --batch <n>            batch size (default 1)\n"
      "  --mode <m>             predicted | measured | auto (default auto)\n"
      "  --streams <n>          execution streams: 1 = serial (default),\n"
      "                         0 = backend maximum, N = clamp to backend max;\n"
      "                         != 1 adds the critical-path analysis\n"
      "  --jobs <n>             parallel profiling jobs for sweeps (default:\n"
      "                         hardware concurrency; also via PROOF_JOBS)\n"
      "  --gpu-mhz <f>          GPU clock override (DVFS)\n"
      "  --mem-mhz <f>          memory clock override (DVFS)\n"
      "  --layers <n>           rows of the layer table to print (default 25)\n"
      "  --batches <list>       comma-separated batch candidates (sweep)\n"
      "  --prefill <n>          prompt length S for sweep-decode (default 512)\n"
      "  --positions <list>     comma-separated decode positions S_past\n"
      "                         for sweep-decode (default 64,256,512,1024)\n"
      "  --filter <substr>      layer/node filter (inspect)\n"
      "  --quantize <0|1>       rewrite the model to int8 QDQ form first\n"
      "  --svg <path>           write the roofline chart\n"
      "  --html <path>          write the HTML dataviewer page\n"
      "  --csv <path>           write the per-layer CSV\n"
      "  --json <path>          write the full report as JSON (includes a\n"
      "                         self_profile section unless PROOF_OBS=0)\n"
      "  --trace <path>         write a Chrome trace-event timeline (includes\n"
      "                         the profiler's own per-thread spans)\n"
      "\n"
      "observability: PROOF_OBS=0 disables self-profiling;\n"
      "PROOF_METRICS_OUT=<path> dumps the metrics JSON at process exit\n";
  std::exit(2);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value.has_value()) {
      usage("missing required option --" + key);
    }
    return *value;
  }
};

/// Numeric flag parsing that fails with a usage message naming the flag
/// instead of surfacing strings::parse_* errors raw ("--batch banana" should
/// read as a CLI mistake, not a stack-level parse error).
int64_t int_flag(const std::string& value, const std::string& flag) {
  try {
    return strings::parse_int(value);
  } catch (const Error&) {
    usage("--" + flag + " needs an integer, got '" + value + "'");
  }
}

double double_flag(const std::string& value, const std::string& flag) {
  try {
    return strings::parse_double(value);
  } catch (const Error&) {
    usage("--" + flag + " needs a number, got '" + value + "'");
  }
}

/// Comma-separated positive integer list ("--batches 1,8,64").
std::vector<int64_t> int_list_flag(const std::string& value,
                                   const std::string& flag) {
  std::vector<int64_t> out;
  for (const auto& field : strings::split_trimmed(value, ',')) {
    const int64_t v = int_flag(field, flag);
    if (v < 1) {
      usage("--" + flag + " entries must be positive, got '" + field + "'");
    }
    out.push_back(v);
  }
  if (out.empty()) {
    usage("--" + flag + " needs at least one value");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    usage();
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 >= argc) {
        usage("option --" + key + " needs a value");
      }
      args.options[key] = argv[++i];
    } else {
      // Positional argument (used by `list`).
      args.options["_pos" + std::to_string(args.options.size())] = token;
    }
  }
  return args;
}

Graph load_model_arg(const Args& args, const std::string& key = "model") {
  const std::string spec = args.require(key);
  Graph model = strings::ends_with(spec, ".pg") ? load_graph(spec)
                                                : models::build_model(spec);
  if (args.get("quantize").value_or("0") == "1") {
    const QuantizeStats stats = quantize_to_qdq(model);
    std::cout << "quantized to QDQ: " << stats.quantized_anchors
              << " anchors, " << stats.int8_params << " int8 weight tensors\n";
  }
  return model;
}

ProfileOptions options_from(const Args& args) {
  ProfileOptions opt;
  opt.platform_id = args.require("platform");
  const auto& desc = hw::PlatformRegistry::instance().get(opt.platform_id);
  if (const auto dtype = args.get("dtype")) {
    opt.dtype = dtype_from_name(*dtype);
  } else {
    opt.dtype = desc.supports(DType::kF16) ? DType::kF16 : DType::kF32;
  }
  if (const auto backend = args.get("backend")) {
    opt.backend_id = *backend;
  }
  if (const auto batch = args.get("batch")) {
    opt.batch = int_flag(*batch, "batch");
    if (opt.batch < 1) {
      usage("--batch needs a positive batch size, got " + *batch);
    }
  }
  if (const auto mode = args.get("mode")) {
    if (*mode == "predicted") {
      opt.mode = MetricMode::kPredicted;
    } else if (*mode == "measured") {
      opt.mode = MetricMode::kMeasured;
    } else if (*mode == "auto") {
      opt.mode = MetricMode::kAuto;
    } else {
      usage("unknown mode '" + *mode + "'");
    }
  } else {
    opt.mode = MetricMode::kAuto;
  }
  if (const auto streams = args.get("streams")) {
    const int64_t n = int_flag(*streams, "streams");
    if (n < 0) {
      usage("--streams needs a non-negative value (0 = backend maximum)");
    }
    opt.streams = static_cast<int>(n);
  }
  if (const auto gpu = args.get("gpu-mhz")) {
    opt.clocks.gpu_mhz = double_flag(*gpu, "gpu-mhz");
    if (opt.clocks.gpu_mhz <= 0.0) {
      usage("--gpu-mhz needs a positive clock, got " + *gpu);
    }
  }
  if (const auto mem = args.get("mem-mhz")) {
    opt.clocks.mem_mhz = double_flag(*mem, "mem-mhz");
    if (opt.clocks.mem_mhz <= 0.0) {
      usage("--mem-mhz needs a positive clock, got " + *mem);
    }
  }
  return opt;
}

int cmd_list(const Args& args) {
  const std::string what =
      args.get("_pos0").value_or(args.get("what").value_or("models"));
  if (what == "models") {
    report::TextTable table({"#", "id", "display name", "type"});
    for (const models::ModelSpec& spec : models::model_zoo()) {
      table.add_row({std::to_string(spec.table3_index), spec.id, spec.display,
                     spec.type});
    }
    for (const models::ModelSpec& spec : models::extended_model_zoo()) {
      table.add_row({"-", spec.id, spec.display, spec.type});
    }
    std::cout << table.to_string();
  } else if (what == "platforms") {
    report::TextTable table({"id", "name", "scenario", "default runtime"});
    for (const std::string& id : hw::paper_platform_ids()) {
      const auto& p = hw::PlatformRegistry::instance().get(id);
      table.add_row({p.id, p.name, p.scenario, p.runtime});
    }
    std::cout << table.to_string();
  } else if (what == "backends") {
    report::TextTable table({"id", "name"});
    for (const std::string& id : backends::BackendRegistry::instance().ids()) {
      table.add_row({id, backends::BackendRegistry::instance().get(id).name()});
    }
    std::cout << table.to_string();
  } else {
    usage("unknown list target '" + what + "'");
  }
  return 0;
}

void write_layer_csv(const ProfileReport& r, const std::string& path) {
  report::CsvWriter csv({"backend_layer", "model_nodes", "class", "latency_ms",
                         "share", "flops", "bytes", "ai", "attained_flops",
                         "attained_bw", "mapped_via"});
  for (size_t i = 0; i < r.layers.size(); ++i) {
    const LayerReport& layer = r.layers[i];
    const roofline::Point& pt = r.roofline.layers[i];
    csv.add_row({layer.backend_layer, strings::join(layer.model_nodes, ";"),
                 std::string(op_class_name(layer.cls)),
                 units::fixed(layer.latency_s * 1e3, 6),
                 units::fixed(pt.latency_share, 6), units::fixed(layer.flops, 0),
                 units::fixed(layer.bytes, 0),
                 units::fixed(pt.arithmetic_intensity(), 4),
                 units::fixed(pt.attained_flops(), 0),
                 units::fixed(pt.attained_bandwidth(), 0),
                 std::string(mapping::map_method_name(layer.method))});
  }
  csv.save(path);
  std::cout << "wrote " << path << "\n";
}

int cmd_profile(const Args& args) {
  const ProfileOptions opt = options_from(args);
  const Graph model = load_model_arg(args);
  const ProfileReport r = Profiler(opt).run(model);

  std::cout << summary_text(r) << "\n";
  const int64_t layer_rows = int_flag(args.get("layers").value_or("25"), "layers");
  if (layer_rows < 0) {
    usage("--layers needs a non-negative row count (0 = all)");
  }
  const size_t rows = static_cast<size_t>(layer_rows);
  std::cout << layer_table_text(r, rows);
  if (r.layers.size() > rows) {
    std::cout << "... (" << r.layers.size() - rows
              << " more layers; use --layers 0 for all or --csv)\n";
  }

  if (const auto svg = args.get("svg")) {
    report::SvgOptions svg_opt;
    svg_opt.title = r.model_name + " on " + r.platform_name;
    report::save_svg(report::render_roofline_svg(r.roofline, svg_opt), *svg);
    std::cout << "wrote " << *svg << "\n";
  }
  if (const auto html = args.get("html")) {
    report::save_html(report::render_html_report(r), *html);
    std::cout << "wrote " << *html << "\n";
  }
  if (const auto csv = args.get("csv")) {
    write_layer_csv(r, *csv);
  }
  if (const auto json = args.get("json")) {
    save_json(report_to_json(r, obs::enabled()), *json);
    std::cout << "wrote " << *json << "\n";
  }
  if (const auto trace = args.get("trace")) {
    save_chrome_trace(report_to_chrome_trace(r, obs::trace_events()), *trace);
    std::cout << "wrote " << *trace << " (open in chrome://tracing)\n";
  }
  return 0;
}

int cmd_stats(const Args& args) {
  // Run a representative workload so every pipeline phase (prepare, mapping,
  // analysis, latency — and sweep when --batches is given) leaves spans, then
  // print the framework's own cost breakdown.
  const ProfileOptions opt = options_from(args);
  const Graph model = load_model_arg(args);
  if (const auto list = args.get("batches")) {
    (void)sweep_batches(opt, model, int_list_flag(*list, "batches"));
  } else {
    (void)Profiler(opt).run(model);
  }

  std::cout << obs::self_profile_text();
  if (const auto json = args.get("json")) {
    obs::dump_self_profile(*json);
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}

int cmd_peaks(const Args& args) {
  const ProfileOptions opt = options_from(args);
  const auto& platform = hw::PlatformRegistry::instance().get(opt.platform_id);
  backends::BuildConfig config;
  config.dtype = opt.dtype;
  const std::string backend_id =
      opt.backend_id.empty() ? platform.runtime : opt.backend_id;
  const backends::Engine probe =
      backends::BackendRegistry::instance().get(backend_id).build(
          models::build_peak_probe(), config, platform);
  const hw::PlatformState state(platform, opt.clocks);
  const roofline::AchievedPeaks peaks = roofline::achieved_peaks(probe, state);
  const double power = hw::PowerModel(state).power_w({1.0, 1.0});
  std::cout << "platform: " << platform.name << "  (GPU "
            << units::fixed(state.gpu_mhz(), 0) << " MHz, mem "
            << units::fixed(state.mem_mhz(), 0) << " MHz, "
            << dtype_name(opt.dtype) << ")\n";
  std::cout << "theoretical: " << units::tflops(platform.matrix_peak(opt.dtype))
            << " / " << units::gbps(platform.dram_bw) << "\n";
  std::cout << "achieved:    " << units::tflops(peaks.flops) << " / "
            << units::gbps(peaks.bw) << "\n";
  std::cout << "full-load power: " << units::fixed(power, 1) << " W\n";
  return 0;
}

int cmd_compare(const Args& args) {
  const ProfileOptions opt = options_from(args);
  const Profiler profiler(opt);
  const ProfileReport baseline = profiler.run(load_model_arg(args));
  const ProfileReport candidate =
      profiler.run(load_model_arg(args, "model2"));
  std::cout << "--- baseline ---\n" << summary_text(baseline) << "\n";
  std::cout << "--- candidate ---\n" << summary_text(candidate) << "\n";
  std::cout << "--- delta ---\n" << delta_text(compare_reports(baseline, candidate));
  if (const auto html = args.get("html")) {
    report::save_html(
        report::render_html_report(
            "PRoof comparison",
            {{"baseline: " + baseline.model_name, &baseline},
             {"candidate: " + candidate.model_name, &candidate}}),
        *html);
    std::cout << "wrote " << *html << "\n";
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  ProfileOptions opt = options_from(args);
  const Graph model = load_model_arg(args);
  std::vector<int64_t> candidates;
  if (const auto list = args.get("batches")) {
    candidates = int_list_flag(*list, "batches");
  }
  const BatchSweep sweep = sweep_batches(opt, model, candidates);
  std::cout << sweep_text(sweep);
  return 0;
}

int cmd_sweep_decode(const Args& args) {
  DecodeSweepOptions options;
  options.config_id = args.get("model").value_or("gpt2");
  if (const auto v = args.get("dtype")) {
    options.dtype = dtype_from_name(*v);
  }
  if (const auto v = args.get("backend")) {
    options.backend_id = *v;
  }
  if (const auto v = args.get("prefill")) {
    options.prefill_len = int_flag(*v, "prefill");
    if (options.prefill_len < 1) {
      usage("--prefill needs a positive prompt length, got " + *v);
    }
  }
  if (const auto v = args.get("batches")) {
    options.batches = int_list_flag(*v, "batches");
  }
  if (const auto v = args.get("positions")) {
    options.positions = int_list_flag(*v, "positions");
  }

  // Default: the cross-platform decode-bound-ness summary over the registry.
  const std::string platform = args.get("platform").value_or("all");
  if (platform == "all") {
    const std::vector<PlatformDecodeSummary> rows =
        sweep_decode_platforms(options);
    std::cout << decode_platforms_text(rows);
    if (const auto json = args.get("json")) {
      save_json(decode_platforms_json(rows), *json);
      std::cout << "wrote " << *json << "\n";
    }
    return 0;
  }

  options.platform_id = platform;
  const DecodeSweep sweep = sweep_decode(options);
  std::cout << decode_sweep_text(sweep);
  if (const auto svg = args.get("svg")) {
    report::SvgOptions svg_opt;
    svg_opt.title =
        sweep.model_display + " decode step on " + sweep.platform_name;
    report::save_svg(
        report::render_time_roofline_svg(sweep.decode_time, svg_opt), *svg);
    std::cout << "wrote " << *svg << "\n";
  }
  if (const auto svg = args.get("prefill-svg")) {
    report::SvgOptions svg_opt;
    svg_opt.title = sweep.model_display + " prefill on " + sweep.platform_name;
    report::save_svg(
        report::render_time_roofline_svg(sweep.prefill_time, svg_opt), *svg);
    std::cout << "wrote " << *svg << "\n";
  }
  if (const auto path = args.get("curves")) {
    // One tokens/s-vs-batch curve per decode position, plus the prefill curve
    // (prompt tokens per second) for scale.
    std::vector<report::Curve> curves;
    const size_t n_pos = sweep.options.positions.size();
    for (size_t p = 0; p < n_pos; ++p) {
      report::Curve curve;
      curve.label = "decode @p" + std::to_string(sweep.options.positions[p]);
      for (size_t b = 0; b < sweep.options.batches.size(); ++b) {
        const DecodePoint& pt = sweep.points[b * n_pos + p];
        curve.points.emplace_back(static_cast<double>(pt.batch),
                                  pt.tokens_per_s);
      }
      curves.push_back(std::move(curve));
    }
    report::Curve prefill_curve;
    prefill_curve.label = "prefill";
    for (const PrefillPoint& pt : sweep.prefill) {
      prefill_curve.points.emplace_back(static_cast<double>(pt.batch),
                                        pt.tokens_per_s);
    }
    curves.push_back(std::move(prefill_curve));
    report::save_svg(
        report::render_curves_svg(
            curves, sweep.model_display + " on " + sweep.platform_name,
            "batch size", "tokens/s"),
        *path);
    std::cout << "wrote " << *path << "\n";
  }
  if (const auto json = args.get("json")) {
    save_json(decode_sweep_json(sweep), *json);
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}

int cmd_optimize(const Args& args) {
  opt::OptimizeOptions options;
  options.base = options_from(args);
  if (const auto v = args.get("objective")) {
    options.objective = opt::objective_from_name(*v);
  }
  if (const auto v = args.get("power-budget")) {
    options.power_budget_w = double_flag(*v, "power-budget");
    if (options.power_budget_w <= 0.0) {
      usage("--power-budget needs a positive wattage, got " + *v);
    }
  }
  if (const auto v = args.get("noise")) {
    options.noise_threshold = double_flag(*v, "noise");
    if (options.noise_threshold < 0.0 || options.noise_threshold >= 1.0) {
      usage("--noise needs a fraction in [0, 1), got " + *v);
    }
  }
  if (const auto v = args.get("rounds")) {
    const int64_t rounds = int_flag(*v, "rounds");
    if (rounds < 1) {
      usage("--rounds needs a positive round count, got " + *v);
    }
    options.max_rounds = static_cast<int>(rounds);
  }
  if (const auto v = args.get("axes")) {
    options.axes = opt::axes_from_string(*v);
  }

  // Zoo ids keep the model-rewrite axis (the optimizer looks up `<id>_mod`
  // siblings); serialized .pg graphs optimize along the remaining axes.
  const std::string spec = args.require("model");
  const opt::OptimizeResult result =
      strings::ends_with(spec, ".pg")
          ? opt::optimize_graph(load_model_arg(args), options)
          : opt::optimize(spec, options);

  std::cout << opt::optimization_text(result) << "\n";
  std::cout << "--- final configuration ---\n"
            << summary_text(result.final_report);
  if (const auto json = args.get("json")) {
    save_json(report_to_json(result.final_report, obs::enabled(),
                             opt::optimization_section_json(result.log)),
              *json);
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}

int cmd_summarize(const Args& args) {
  const Graph model = load_model_arg(args);
  const int64_t layer_rows = int_flag(args.get("layers").value_or("0"), "layers");
  if (layer_rows < 0) {
    usage("--layers needs a non-negative row count (0 = all)");
  }
  const size_t rows = static_cast<size_t>(layer_rows);
  std::cout << models::model_summary(model, rows);
  return 0;
}

int cmd_inspect(const Args& args) {
  const ProfileOptions opt = options_from(args);
  const Graph model = load_model_arg(args);
  const ProfileReport r = Profiler(opt).run(model);
  std::cout << stack_text(r, args.get("filter").value_or(""));
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServerOptions opt;
  opt.listen = args.get("listen").value_or("127.0.0.1:0");
  if (const auto v = args.get("max-inflight")) {
    const int64_t n = int_flag(*v, "max-inflight");
    if (n < 1) {
      usage("--max-inflight needs a positive value");
    }
    opt.max_inflight = static_cast<unsigned>(n);
  }
  if (const auto v = args.get("deadline-s")) {
    opt.default_deadline_s = double_flag(*v, "deadline-s");
  }
  if (const auto v = args.get("drain-timeout")) {
    opt.drain_timeout_s = double_flag(*v, "drain-timeout");
  }
  if (const auto v = args.get("preload")) {
    opt.preload = strings::split_trimmed(*v, ',');
  }
  opt.verbose = args.get("verbose").value_or("1") == "1";

  serve::Server server(std::move(opt));
  server.install_signal_handlers();
  server.start();
  // The one stdout line scripts parse to discover the bound endpoint
  // (ephemeral TCP ports in particular).
  std::cout << "listening " << server.endpoint().describe() << "\n"
            << std::flush;
  server.wait();
  return 0;
}

/// Assembles the request payload from CLI options (or --params verbatim).
std::string client_request(const Args& args, const std::string& method) {
  std::ostringstream out;
  out << "{\"id\":1,\"method\":" << json::quote(method) << ",\"params\":";
  if (const auto params = args.get("params")) {
    (void)json::parse(*params);  // fail client-side with a clear message
    out << *params;
  } else {
    out << "{";
    bool first = true;
    const auto field = [&](const char* key, const std::string& raw) {
      out << (first ? "" : ",") << "\"" << key << "\":" << raw;
      first = false;
    };
    if (const auto v = args.get("model")) field("model", json::quote(*v));
    if (const auto v = args.get("platform")) field("platform", json::quote(*v));
    if (const auto v = args.get("backend")) field("backend", json::quote(*v));
    if (const auto v = args.get("dtype")) field("dtype", json::quote(*v));
    if (const auto v = args.get("mode")) field("mode", json::quote(*v));
    if (const auto v = args.get("batch")) {
      field("batch", std::to_string(int_flag(*v, "batch")));
    }
    if (const auto v = args.get("gpu-mhz")) {
      (void)double_flag(*v, "gpu-mhz");
      field("gpu_mhz", *v);
    }
    if (const auto v = args.get("mem-mhz")) {
      (void)double_flag(*v, "mem-mhz");
      field("mem_mhz", *v);
    }
    if (const auto v = args.get("objective")) {
      field("objective", json::quote(*v));
    }
    if (const auto v = args.get("power-budget")) {
      (void)double_flag(*v, "power-budget");
      field("power_budget_w", *v);
    }
    if (const auto v = args.get("noise")) {
      (void)double_flag(*v, "noise");
      field("noise_threshold", *v);
    }
    if (const auto v = args.get("rounds")) {
      field("max_rounds", std::to_string(int_flag(*v, "rounds")));
    }
    if (const auto v = args.get("axes")) {
      field("axes", json::quote(*v));
    }
    if (const auto v = args.get("deadline-ms")) {
      (void)double_flag(*v, "deadline-ms");
      field("deadline_ms", *v);
    }
    if (const auto v = args.get("debug-sleep-ms")) {
      field("debug_sleep_ms", std::to_string(int_flag(*v, "debug-sleep-ms")));
    }
    const auto int_array = [&](const char* key, const std::string& raw,
                               const std::string& flag) {
      std::string list;
      for (const int64_t v : int_list_flag(raw, flag)) {
        if (!list.empty()) {
          list += ',';
        }
        list += std::to_string(v);
      }
      field(key, "[" + list + "]");
    };
    if (const auto v = args.get("batches")) {
      int_array("batches", *v, "batches");
    }
    if (const auto v = args.get("positions")) {
      int_array("positions", *v, "positions");
    }
    if (const auto v = args.get("prefill")) {
      field("prefill_len", std::to_string(int_flag(*v, "prefill")));
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

int cmd_client(const Args& args) {
  const std::string method = args.get("method").value_or("ping");
  const std::string payload = client_request(args, method);
  net::Socket socket = net::connect(net::Endpoint::parse(args.require("connect")));
  serve::write_frame(socket, payload);
  while (true) {
    const std::optional<std::string> frame = serve::read_frame(socket);
    if (!frame.has_value()) {
      std::cerr << "error: server closed the connection without a result\n";
      return 1;
    }
    const serve::Response response = serve::parse_response(*frame);
    if (response.is_progress()) {
      std::cerr << "progress: " << response.payload << "\n";
      continue;
    }
    if (response.is_error()) {
      std::cerr << "error " << response.error_code << " ("
                << response.error_kind << "): " << response.error_message
                << "\n";
      return 1;
    }
    if (const auto path = args.get("json")) {
      save_json(response.payload, *path);
      std::cerr << "wrote " << *path << "\n";
    } else {
      std::cout << response.payload << "\n";
    }
    return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (const auto jobs = args.get("jobs")) {
      const int64_t n = int_flag(*jobs, "jobs");
      if (n < 1) {
        usage("--jobs needs a positive value");
      }
      proof::ThreadPool::set_global_jobs(static_cast<unsigned>(n));
    }
    if (args.command == "list") {
      return cmd_list(args);
    }
    if (args.command == "profile") {
      return cmd_profile(args);
    }
    if (args.command == "peaks") {
      return cmd_peaks(args);
    }
    if (args.command == "compare") {
      return cmd_compare(args);
    }
    if (args.command == "sweep") {
      return cmd_sweep(args);
    }
    if (args.command == "sweep-decode") {
      return cmd_sweep_decode(args);
    }
    if (args.command == "optimize") {
      return cmd_optimize(args);
    }
    if (args.command == "inspect") {
      return cmd_inspect(args);
    }
    if (args.command == "summarize") {
      return cmd_summarize(args);
    }
    if (args.command == "stats") {
      return cmd_stats(args);
    }
    if (args.command == "serve") {
      return cmd_serve(args);
    }
    if (args.command == "client") {
      return cmd_client(args);
    }
    usage("unknown command '" + args.command + "'");
  } catch (const proof::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
