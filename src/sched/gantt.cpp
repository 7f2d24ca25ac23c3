#include "sched/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/expects.hpp"

namespace slacksched {

void render_gantt(std::ostream& out, const Schedule& schedule,
                  const GanttOptions& options) {
  SLACKSCHED_EXPECTS(options.width >= 10);
  const TimePoint t_end =
      options.t_end > 0.0 ? options.t_end : std::max(1.0, schedule.makespan());
  const double scale = static_cast<double>(options.width) / t_end;

  if (!options.title.empty()) out << options.title << '\n';
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    std::string row(static_cast<std::size_t>(options.width), '.');
    for (const Placement& p : schedule.on_machine(machine)) {
      const int c0 = std::clamp(
          static_cast<int>(std::floor(p.start * scale)), 0, options.width - 1);
      const int c1 = std::clamp(
          static_cast<int>(std::ceil(p.completion() * scale)), c0 + 1,
          options.width);
      const char digit =
          static_cast<char>('0' + (p.job.id >= 0 ? p.job.id % 10 : 0));
      for (int c = c0; c < c1; ++c) row[static_cast<std::size_t>(c)] = digit;
      row[static_cast<std::size_t>(c0)] = '[';
    }
    out << "  m" << machine << " |" << row << "|\n";
  }
  out << "      0" << std::string(static_cast<std::size_t>(options.width) - 4, ' ')
      << "t=" << t_end << '\n';
}

SvgDocument render_gantt_svg(const Schedule& schedule,
                             const GanttOptions& options) {
  const TimePoint t_end =
      options.t_end > 0.0 ? options.t_end : std::max(1.0, schedule.makespan());
  constexpr double kLaneHeight = 34.0;
  constexpr double kLaneGap = 8.0;
  constexpr double kLeft = 60.0;
  constexpr double kTop = 36.0;
  const double plot_width = 760.0;
  const double height = kTop + schedule.machines() * (kLaneHeight + kLaneGap) +
                        32.0;
  SvgDocument svg(kLeft + plot_width + 20.0, height);

  if (!options.title.empty()) {
    svg.text(kLeft, 22.0, options.title, 14.0);
  }
  const AxisScale x(0.0, t_end, kLeft, kLeft + plot_width);
  const auto& palette = default_palette();

  for (int machine = 0; machine < schedule.machines(); ++machine) {
    const double lane_y = kTop + machine * (kLaneHeight + kLaneGap);
    svg.text(10.0, lane_y + kLaneHeight * 0.65,
             std::string("m").append(std::to_string(machine)), 12.0);
    svg.rect(kLeft, lane_y, plot_width, kLaneHeight, "#f2f2f2");
    for (const Placement& p : schedule.on_machine(machine)) {
      const double x0 = x(std::min(p.start, t_end));
      const double x1 = x(std::min(p.completion(), t_end));
      const std::string& color = palette[static_cast<std::size_t>(
          p.job.id >= 0 ? p.job.id : 0) % palette.size()];
      svg.rect(x0, lane_y + 2.0, std::max(1.0, x1 - x0), kLaneHeight - 4.0,
               color, "#333333");
      if (x1 - x0 > 24.0) {
        svg.text(0.5 * (x0 + x1), lane_y + kLaneHeight * 0.65,
                 std::string("J").append(std::to_string(p.job.id)), 11.0,
                 "#ffffff", "middle");
      }
    }
  }
  // Time axis with a few ticks.
  const double axis_y = height - 22.0;
  svg.line(kLeft, axis_y, kLeft + plot_width, axis_y);
  for (int tick = 0; tick <= 4; ++tick) {
    const double value = t_end * tick / 4.0;
    const double px = x(value);
    svg.line(px, axis_y, px, axis_y + 4.0);
    std::ostringstream label;
    label.precision(3);
    label << value;
    svg.text(px, axis_y + 16.0, label.str(), 10.0, "#111111", "middle");
  }
  return svg;
}

}  // namespace slacksched
