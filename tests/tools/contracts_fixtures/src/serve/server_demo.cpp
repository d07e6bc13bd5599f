namespace commsched::serve {

// A named thread root (Server::run_loop) whose class no longer has that
// method: the entry point was renamed without telling the analyzer.
class Server {
 public:
  void run_strand();
};

void Server::run_strand() {}

}  // namespace commsched::serve
