// Reproduces Figure 4: system scalability with all data in S3.
//
// (m, n) cores with m = n in {4, 8, 16, 32}; for each doubling the paper
// annotates the scaling efficiency T(n) / (2 * T(2n)).
#include "paper_common.hpp"

int main() {
  using namespace cloudburst;
  const unsigned kCores[] = {4, 8, 16, 32};

  for (bench::PaperApp app :
       {bench::PaperApp::Knn, bench::PaperApp::Kmeans, bench::PaperApp::PageRank}) {
    AsciiTable table({"(m,n) cores", "side", "processing", "retrieval", "sync",
                      "exec time", "efficiency vs previous"});
    double previous = 0.0;
    double efficiency_sum = 0.0;
    int doublings = 0;
    for (unsigned cores : kCores) {
      const auto result = apps::run_scalability(app, cores);
      std::string eff = "-";
      if (previous > 0.0) {
        const double e = previous / (2.0 * result.total_time);
        eff = AsciiTable::pct(e, 1);
        efficiency_sum += e;
        ++doublings;
      }
      bool first = true;
      for (const auto& c : result.clusters) {
        if (c.nodes == 0) continue;
        std::string label = "(";
        label += std::to_string(cores);
        label += ",";
        label += std::to_string(cores);
        label += ")";
        table.add_row({first ? label : "", c.name,
                       AsciiTable::num(c.processing, 1), AsciiTable::num(c.retrieval, 1),
                       AsciiTable::num(c.sync, 1),
                       first ? AsciiTable::num(result.total_time, 1) : "",
                       first ? eff : ""});
        first = false;
      }
      table.add_separator();
      previous = result.total_time;
    }
    const char* label = app == bench::PaperApp::Knn      ? "Figure 4(a)"
                        : app == bench::PaperApp::Kmeans ? "Figure 4(b)"
                                                         : "Figure 4(c)";
    std::printf("%s\n", table.render(std::string(label) + " — " + apps::to_string(app) +
                                     " scalability, all data in S3 (seconds)")
                            .c_str());
    if (doublings > 0) {
      std::printf("average scaling efficiency per doubling: %.1f%%\n\n",
                  efficiency_sum / doublings * 100.0);
    }
  }
  return 0;
}
