// Pay-as-you-go cloud pricing model.
//
// The paper's conclusion motivates cloud bursting as "combining limited
// local resources with pay-as-you-go cloud resources"; the authors' own
// follow-up work (Bicer et al., "Time and Cost Sensitive Data-Intensive
// Computing on Hybrid Clouds") makes the dollar cost a first-class
// objective. This module prices a simulated run with the 2011-era AWS
// billing rules: per-started-instance-hour compute, per-request S3 GETs,
// and per-GB data transfer *out* of the provider (inbound was free).
#pragma once

#include <cstdint>
#include <string>

namespace cloudburst::cost {

struct CloudPricing {
  /// USD per instance-hour, billed per *started* hour (EC2 2011 rules).
  double instance_hour_usd = 0.34;  // m1.large, us-east, 2011

  /// USD per 1,000 GET requests against the object store.
  double get_per_1000_usd = 0.01;

  /// USD per GB transferred out of the cloud provider to the internet.
  double transfer_out_per_gb_usd = 0.12;

  /// USD per GB-month of object storage (charged for the dataset fraction
  /// hosted in the cloud, prorated to the run duration).
  double storage_gb_month_usd = 0.14;

  /// Billing granularity in hours. 1.0 reproduces the 2011 per-started-hour
  /// rules exactly; smaller values model lease-granular billing (per-minute
  /// at 1/60.0), where a node-pool lease pays for the time it actually held
  /// the instance instead of rounding every window up to a full hour.
  double billing_quantum_hours = 1.0;

  static CloudPricing aws_2011() { return CloudPricing{}; }

  /// 2011 rates with per-minute billing quanta — the pricing a shared node
  /// pool's lease windows are metered under.
  static CloudPricing aws_2011_per_minute() {
    CloudPricing p;
    p.billing_quantum_hours = 1.0 / 60.0;
    return p;
  }
};

/// Itemized cost of one distributed run.
struct CostReport {
  double instance_hours = 0.0;  ///< billed (rounded-up) instance hours
  double instance_usd = 0.0;
  std::uint64_t get_requests = 0;
  double requests_usd = 0.0;
  double transfer_out_gb = 0.0;
  double transfer_usd = 0.0;
  double storage_gb = 0.0;
  double storage_usd = 0.0;

  double total_usd() const {
    return instance_usd + requests_usd + transfer_usd + storage_usd;
  }

  /// Field-by-field sum, in declaration order.
  CostReport& operator+=(const CostReport& o) {
    instance_hours += o.instance_hours;
    instance_usd += o.instance_usd;
    get_requests += o.get_requests;
    requests_usd += o.requests_usd;
    transfer_out_gb += o.transfer_out_gb;
    transfer_usd += o.transfer_usd;
    storage_gb += o.storage_gb;
    storage_usd += o.storage_usd;
    return *this;
  }

  std::string to_string() const;
};

}  // namespace cloudburst::cost
