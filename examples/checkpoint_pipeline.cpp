// Checkpoint & restart pipeline: the paper's motivating workload.
//
// A simulated compute node produces a large double-precision state array
// every "timestep"; it is compressed in memory as one checkpoint variable
// (chunks encode in parallel on the shared pool), the checkpoint is written
// to a file, and a restart reads it back and decompresses it. Timings for
// every phase are printed so the compression-vs-I/O trade is visible.
//
//   ./checkpoint_pipeline [dataset] [elements] [timesteps]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "util/error.h"
#include "util/timer.h"

namespace {

void WriteFile(const std::filesystem::path& path, const primacy::Bytes& file) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  if (!out) throw primacy::Error("checkpoint write failed");
}

primacy::Bytes ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return primacy::BytesFromString(raw);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "gts_chkp_zeon";
  const std::size_t elements =
      argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : 1u << 21;
  const int timesteps = argc > 3 ? std::stoi(argv[3]) : 3;

  const auto path = std::filesystem::temp_directory_path() /
                    "primacy_checkpoint.bin";
  primacy::PrimacyOptions options;
  options.threads = 0;  // chunk-parallel encode and decode across all cores

  std::printf("Checkpoint pipeline: dataset=%s, %zu doubles, %d timesteps\n",
              dataset.c_str(), elements, timesteps);
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "timestep", "compress(s)",
              "write(s)", "read(s)", "restore(s)", "ratio");

  for (int step = 0; step < timesteps; ++step) {
    // Each timestep perturbs the seed so content evolves between steps.
    primacy::DatasetSpec spec = primacy::FindDataset(dataset);
    spec.seed += static_cast<std::uint64_t>(step);
    const std::vector<double> state = primacy::GenerateDataset(spec, elements);

    primacy::WallTimer timer;
    primacy::CheckpointWriter writer(options);
    writer.Add("state", std::span(state));
    const primacy::Bytes checkpoint = writer.Finish();
    const double compress_s = timer.Seconds();

    timer.Reset();
    WriteFile(path, checkpoint);
    const double write_s = timer.Seconds();

    timer.Reset();
    const primacy::Bytes file = ReadFile(path);
    const double read_s = timer.Seconds();

    timer.Reset();
    const primacy::CheckpointReader reader(file, options);
    const std::vector<double> restored = reader.ReadDoubles("state");
    const double restore_s = timer.Seconds();

    if (restored != state) {
      std::printf("ERROR: restart mismatch at timestep %d\n", step);
      return 1;
    }
    std::printf("%-10d %12.3f %12.3f %12.3f %12.3f %10.3f\n", step,
                compress_s, write_s, read_s, restore_s,
                reader.Find("state").CompressionRatio());
  }
  std::filesystem::remove(path);
  std::printf("\nAll restarts verified bit-exact.\n");
  return 0;
}
